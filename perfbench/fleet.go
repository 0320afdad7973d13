package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tableau/internal/core"
	"tableau/internal/experiments"
	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/verify"
)

// The fleet workloads share one fleet shape: 1000 journaled hosts of 8
// cores and 20 slots (40 of them spares), filled by PlaceBatch with
// 10,000 VMs to about 56% reserved.
const (
	fleetHosts   = 1000
	fleetCores   = 8
	fleetSlots   = 20
	fleetSpares  = 40
	fleetPlacers = 8
	fleetFill    = 10_000

	liveClients = 2 // fleet-live client goroutines (= nproc)

	stormChurn    = 100 // VMs departed and replaced per storm
	stormSurge    = 20  // 3/4-core VMs added per storm at the admission edge
	stormVictims  = 1   // hosts armed to crash per storm
	stormFailStop = 30  // % of armed crashes that are fail-stop
	densityStorm  = 8   // density_pct is read after this storm of each epoch
)

// fleetVM draws a guest from the fleet menu (mean 0.44 cores; a quarter
// best-effort, drawn last like the fleet experiments do).
func fleetVM(rng *rand.Rand, name string) fleet.VM {
	vm := fleet.VM{Name: name, LatencyGoal: 20_000_000}
	switch d := rng.Intn(100); {
	case d < 5:
		vm.Util = planner.Util{Num: 1, Den: 8}
	case d < 40:
		vm.Util = planner.Util{Num: 1, Den: 4}
	case d < 80:
		vm.Util = planner.Util{Num: 1, Den: 2}
	default:
		vm.Util = planner.Util{Num: 3, Den: 4}
	}
	if rng.Intn(100) < 25 {
		vm.Class = planner.BE
	}
	return vm
}

// newFleet builds the journaled fleet and places the seeded fill wave.
// With edge set the wave continues with a surge of 3/4-core VMs a tenth
// larger than the regular hosts' free capacity, so the fleet starts at
// the admission edge.
func newFleet(seed int64, forEach func(int, func(int) error) error, edge bool) (*fleet.Arbiter, *planner.Cache, error) {
	cache := planner.NewCache(8192)
	arb, err := fleet.New(fleet.Config{
		Hosts: fleetHosts, Cores: fleetCores, SlotsPerHost: fleetSlots,
		Placers: fleetPlacers, MaxAttempts: 6, SpareHosts: fleetSpares,
		Cache: cache, ForEach: forEach, Journal: true,
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	vms := make([]fleet.VM, fleetFill)
	for i := range vms {
		vms[i] = fleetVM(rng, fmt.Sprintf("v%d", i))
	}
	bs, err := arb.PlaceBatch(vms)
	if err == nil && bs.Placed != fleetFill {
		err = fmt.Errorf("fill wave placed %d of %d VMs", bs.Placed, fleetFill)
	}
	if err == nil && edge {
		_, err = arb.PlaceBatch(surgeVMs(edgeSurge(arb.Hosts()), "e"))
	}
	if err != nil {
		arb.Close()
		return nil, nil, err
	}
	return arb, cache, nil
}

// Each measured segment is an epoch with a fleet of its own, built from
// its own sub-seed and timed as a set-up sample. Rebuilding bounds the
// heap, since every commit grows the hosts' epoch histories, ledgers
// and journals for the oracle, and lets a run average over several
// fills rather than ride on one.
type epoch struct {
	arb   *fleet.Arbiter
	cache *planner.Cache
	hosts []*fleet.Host
	index int // the measured segment
	kind  int // 1 when the segment is traced
	until time.Time
}

// runFleetEpochs runs body on each epoch's fleet until the epoch's
// share of the measured time is up, then applies the fleet correctness
// gate and closes the fleet. A traced epoch builds with the fan-out
// probe on, though only the measured phase's fan-out is kept. The live
// heap is taken after every build and, in a traced run, again when the
// first epoch ends.
func runFleetEpochs(cfg runConfig, o *outcome, fo *fanout, t *fleetTally, edge bool, body func(*epoch) error) error {
	for i := 0; i < segments; i++ {
		e := &epoch{index: i, kind: segmentKind(cfg.trace, i)}
		forEach := experiments.ForEach
		if fo != nil {
			fo.on.Store(e.kind == 1)
			forEach = fo.ForEach
		}
		liveHeap() // the previous fleet's garbage is not this build's cost
		start := time.Now()
		arb, cache, err := newFleet(cfg.seed*1_000_003+int64(i), forEach, edge)
		if err != nil {
			return err
		}
		o.setup[e.kind] = append(o.setup[e.kind], time.Since(start).Seconds())
		heap := liveHeap()
		o.heap = append(o.heap, heap/1e6)
		if fo != nil {
			fo.reset() // the set-up's fan-out is not the measured phase's
			fo.on.Store(e.kind == 1)
		}
		e.arb, e.cache, e.hosts = arb, cache, arb.Hosts()
		before := readFleet(arb, cache)
		e.until = time.Now().Add(cfg.dur / segments)
		err = body(e)
		t.add(before, readFleet(arb, cache))
		if err == nil {
			err = checkFleet(arb)
		}
		if err == nil && i == 0 && cfg.trace {
			t.growth = liveHeap() - heap
			t.growthBase = float64(t.ctrl.Transitions)
		}
		arb.Close()
		if err != nil {
			return fmt.Errorf("epoch %d: %w", i, err)
		}
	}
	return nil
}

// fleetCounters is one reading of every counter the fleet layers expose.
type fleetCounters struct {
	arb   fleet.Stats
	ctrl  core.Stats
	cache planner.CacheStats
}

func readFleet(arb *fleet.Arbiter, cache *planner.Cache) fleetCounters {
	return fleetCounters{arb: arb.Stats(), ctrl: arb.ControllerTotals(), cache: cache.FullStats()}
}

// fleetTally sums counter growth over every epoch's measured phase.
type fleetTally struct {
	arb                fleet.Stats // the fields layers reports
	ctrl               core.Stats
	cache              planner.CacheStats
	growth, growthBase float64 // first epoch's live heap growth, and its transitions
}

func (t *fleetTally) add(a, b fleetCounters) {
	t.arb.Placed += b.arb.Placed - a.arb.Placed
	t.arb.Conflicts += b.arb.Conflicts - a.arb.Conflicts
	t.arb.AdmissionRejects += b.arb.AdmissionRejects - a.arb.AdmissionRejects
	t.arb.SlotRejects += b.arb.SlotRejects - a.arb.SlotRejects
	t.arb.SparePlacements += b.arb.SparePlacements - a.arb.SparePlacements
	t.arb.Unplaced += b.arb.Unplaced - a.arb.Unplaced
	t.arb.Shed += b.arb.Shed - a.arb.Shed
	t.arb.DepartsDeferred += b.arb.DepartsDeferred - a.arb.DepartsDeferred
	addStats(&t.ctrl, a.ctrl, b.ctrl)
	addCacheStats(&t.cache, a.cache, b.cache)
}

// layers reports the fleet, core and planner layers. Every count is
// taken per unit of the work it belongs to, so a faster program, which
// does more work in the same time, does not read as a change of
// behaviour: offered is the number of VMs offered for placement,
// departed the number of departures requested; sweeps are timed
// snapshot sweeps.
func (t *fleetTally) layers(offered, departed int64, sweeps []float64) []Metric {
	s := t.arb
	// Every commit attempt ends placed, lost to a conflict, or rejected.
	attempts := s.Placed + s.Conflicts + s.AdmissionRejects + s.SlotRejects
	perVM := func(name, what string, n int64) Metric {
		return per(name, "1/vm", what, float64(n), "VMs offered", float64(offered))
	}
	out := []Metric{
		ratio("fleet.attempts_per_vm", "commit attempts", float64(attempts), "VMs offered", float64(offered)),
		ratio("fleet.useful_commit_ratio", "placed", float64(s.Placed), "commit attempts", float64(attempts)),
		perVM("fleet.conflicts", "commit conflicts", s.Conflicts),
		perVM("fleet.admission_rejects", "admission rejects", s.AdmissionRejects),
		perVM("fleet.slot_rejects", "slot rejects", s.SlotRejects),
		perVM("fleet.spare_placements", "spare placements", s.SparePlacements),
		perVM("fleet.unplaced", "unplaced", s.Unplaced),
		perVM("fleet.shed", "shed", s.Shed),
		per("fleet.departs_deferred", "1/depart", "departures deferred", float64(s.DepartsDeferred), "departures requested", float64(departed)),
		medianOf("fleet.snapshot_sweep_us", "us", sweeps),
	}
	return append(out, controllerLayers(t.ctrl, t.cache, "VMs offered or departed", float64(offered+departed))...)
}

// controllerLayers reports summed core and planner counters, each per
// unit of its own work: flushes per op of the workload (named by
// what), the rest per flush, per op drained or per cache lookup.
func controllerLayers(st core.Stats, cs planner.CacheStats, what string, ops float64) []Metric {
	return []Metric{
		per("core.flushes", "1/op", "flushes", float64(st.Flushes), what, ops),
		ratio("core.transitions", "epochs installed", float64(st.Transitions), "flushes", float64(st.Flushes)),
		ratio("core.ops_per_flush", "ops drained", float64(st.OpsCoalesced), "flushes", float64(st.Flushes)),
		ratio("core.planner_calls_per_transition", "planner calls", float64(st.PlannerCalls), "transitions", float64(st.Transitions)),
		ratio("core.rejections", "ops refused", float64(st.Rejections), "ops drained", float64(st.OpsCoalesced)),
		ratio("core.rollbacks", "batches undone", float64(st.Rollbacks), "flushes", float64(st.Flushes)),
		ratio("planner.cache_hit_ratio", "cache hits", float64(cs.Hits), "lookups", float64(cs.Hits+cs.Misses)),
		ratio("planner.cache_evictions", "evictions", float64(cs.Evictions), "lookups", float64(cs.Hits+cs.Misses)),
		per("planner.cache_bytes", "bytes/entry", "bytes held at the end", float64(cs.Bytes), "entries", float64(cs.Entries)),
		ratio("planner.slice_hit_ratio", "slice hits", float64(cs.Slice.Hits), "slice lookups", float64(cs.Slice.Hits+cs.Slice.Misses)),
	}
}

// addStats adds the controller counters' growth from a to b into t.
func addStats(t *core.Stats, a, b core.Stats) {
	t.Flushes += b.Flushes - a.Flushes
	t.Transitions += b.Transitions - a.Transitions
	t.OpsCoalesced += b.OpsCoalesced - a.OpsCoalesced
	t.Rejections += b.Rejections - a.Rejections
	t.Rollbacks += b.Rollbacks - a.Rollbacks
	t.PlannerCalls += b.PlannerCalls - a.PlannerCalls
}

// addCacheStats adds the plan cache counters' growth from a to b into
// t and takes b's current footprint.
func addCacheStats(t *planner.CacheStats, a, b planner.CacheStats) {
	t.Hits += b.Hits - a.Hits
	t.Misses += b.Misses - a.Misses
	t.Evictions += b.Evictions - a.Evictions
	t.Slice.Hits += b.Slice.Hits - a.Slice.Hits
	t.Slice.Misses += b.Slice.Misses - a.Slice.Misses
	t.Bytes, t.Entries = b.Bytes, b.Entries
}

// densityPct is the reserved share of the Up hosts' capacity, in %.
func densityPct(arb *fleet.Arbiter) float64 {
	var used, total float64
	for _, h := range arb.Hosts() {
		s := h.Snapshot()
		if s.State != fleet.HostUp {
			continue
		}
		total += fleetCores * 1e6
		used += fleetCores*1e6 - float64(s.FreePPM)
	}
	return 100 * used / total
}

// checkFleet is the fleet workloads' correctness gate: the cross-host
// continuity oracle must find nothing.
func checkFleet(arb *fleet.Arbiter) error {
	if vs := verify.CheckFleet(arb); len(vs) > 0 {
		return fmt.Errorf("fleet oracle: %d violations, first: %s", len(vs), vs[0])
	}
	return nil
}

// fleetLive: two closed-loop clients, each owning its VM names, depart
// one of their VMs and place a fresh one, over and over.
func fleetLive(cfg runConfig) (*outcome, error) {
	// The gated tail is p90: the Place p99 on a 2-vCPU host is set by GC
	// and scheduler preemption and moves twofold between identical runs.
	// place_p99_us stays in the report.
	o := &outcome{tailQ: 0.9}
	var fo *fanout
	if cfg.trace {
		fo = &fanout{}
	}
	type client struct {
		place, depart [segments][]float64
		ops           [segments]int64
		sweeps        []float64
		unplaced      int64
		err           error
	}
	var (
		cl      [liveClients]client
		tally   fleetTally
		rt      rtAcc // the snapshot-sweep probe does not allocate
		elapsed [segments]float64
	)
	err := runFleetEpochs(cfg, o, fo, &tally, false, func(e *epoch) error {
		var owned [liveClients][]string
		for i, name := range e.arb.PlacedNames() {
			owned[i%liveClients] = append(owned[i%liveClients], name)
		}
		r0 := readRuntime()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < liveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				me := &cl[c]
				mine := owned[c]
				rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(e.index*liveClients+c)))
				for n := 0; ; n++ {
					if !time.Now().Before(e.until) {
						break
					}
					seg := e.index
					i := rng.Intn(len(mine))
					t := time.Now()
					err := e.arb.Depart(mine[i])
					d := time.Since(t)
					if err != nil {
						me.err = fmt.Errorf("depart %s: %w", mine[i], err)
						return
					}
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					me.depart[seg] = append(me.depart[seg], us(d))

					vm := fleetVM(rng, fmt.Sprintf("l%d-%d", c, n))
					t = time.Now()
					_, err = e.arb.Place(vm)
					d = time.Since(t)
					me.place[seg] = append(me.place[seg], us(d))
					me.ops[seg] += 2
					switch {
					case err == nil:
						mine = append(mine, vm.Name)
					case errors.Is(err, fleet.ErrUnplaced):
						me.unplaced++
					default:
						me.err = fmt.Errorf("place %s: %w", vm.Name, err)
						return
					}
					if e.kind == 1 && c == 0 && n%4 == 0 {
						me.sweeps = append(me.sweeps, sweepUs(e.hosts))
					}
				}
				owned[c] = mine
			}(c)
		}
		wg.Wait()
		elapsed[e.index] = time.Since(start).Seconds()
		rt.add(r0, readRuntime(), 0)
		for c := range cl {
			if cl[c].err != nil {
				return cl[c].err
			}
		}
		// The registry holds exactly the VMs the clients believe they own.
		asg := e.arb.Assignments()
		held := 0
		for c := range owned {
			held += len(owned[c])
			for _, name := range owned[c] {
				if _, ok := asg[name]; !ok {
					return fmt.Errorf("client %d owns %s but the registry does not hold it", c, name)
				}
			}
		}
		if held != len(asg) {
			return fmt.Errorf("registry holds %d VMs, clients own %d", len(asg), held)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Each segment is a window: the end-to-end figures are medians over
	// windows, so one stalled second cannot move them.
	var depart [2][]float64
	var sweeps []float64
	var unplaced int64
	var segs [segments]window
	for k := range segs {
		w := window{busy: elapsed[k]}
		for c := range cl {
			w.ops += cl[c].ops[k]
			w.lat = append(w.lat, cl[c].place[k]...)
			depart[segmentKind(cfg.trace, k)] = append(depart[segmentKind(cfg.trace, k)], cl[c].depart[k]...)
		}
		segs[k] = w
		o.attempted += w.ops
	}
	o.addSegments(cfg.trace, segs[:])
	for c := range cl {
		sweeps = append(sweeps, cl[c].sweeps...)
		unplaced += cl[c].unplaced
	}

	failed := ratio("failed_ratio", "unplaced VMs", float64(unplaced), "Place and Depart calls", float64(o.attempted))
	if cfg.trace {
		o.layers = append(tally.layers(o.attempted/2, o.attempted/2, sweeps), failed)
		o.layers = append(o.layers, fo.layers("VMs offered or departed", float64(o.attempted))...)
		rt.ops = o.attempted
		o.layers = append(o.layers, rt.layers(tally.growth, tally.growthBase, "transitions of the first epoch")...)
		return o, nil
	}
	o.aliases = []alias{{"latency_p50_us", "place_p50_us", 1, "us"}}
	p99, _ := windowTail("place_p99_us", o.wins[0], 0.99, false) // reported, not gated: a thin tail reads 0
	o.named = []Metric{
		p99,
		tailMetric("depart_p50_us", "us", depart[0], 0.5),
		tailMetric("depart_p99_us", "us", depart[0], 0.99),
		failed,
	}
	return o, nil
}

// fleetStorm: one goroutine drives churn storms through DepartBatch and
// PlaceBatch. Each storm arms seeded crashes on hosts its departures
// touch and ends with Failover. The fleet starts at the admission edge
// and each storm's surge keeps it there.
func fleetStorm(cfg runConfig) (*outcome, error) {
	o := &outcome{tailQ: 0.9, poolTail: true} // about 44 sweeps per segment
	var fo *fanout
	if cfg.trace {
		fo = &fanout{}
	}
	var (
		segs     [segments]window
		sweeps   []float64
		perSweep []fleet.Stats
		img      imageProbe
		rt       rtAcc
		tally    fleetTally
		refused  int64
		offered  int64 // VMs offered for placement
		departed int64 // departures requested
		evacuees int64
		dens     []float64 // density_pct after storm densityStorm of each epoch
	)
	err := runFleetEpochs(cfg, o, fo, &tally, true, func(e *epoch) error {
		rng := rand.New(rand.NewSource(cfg.seed*104729 + int64(e.index)))
		for k := 0; ; k++ {
			if !time.Now().Before(e.until) {
				return nil
			}
			live := e.arb.PlacedNames()
			asg := e.arb.Assignments()
			departs := make([]string, 0, stormChurn)
			var owners []int
			seen := make(map[int]bool)
			for _, i := range rng.Perm(len(live))[:stormChurn] {
				departs = append(departs, live[i])
				if h := asg[live[i]]; !seen[h] {
					seen[h] = true
					owners = append(owners, h)
				}
			}
			plan, err := faults.GenerateHostCrashPlan(rng.Int63(), len(owners), stormVictims, stormFailStop, 1)
			if err != nil {
				return err
			}
			for i := range plan.Crashes {
				plan.Crashes[i].Host = owners[plan.Crashes[i].Host]
			}
			if _, err := e.arb.ArmCrashes(plan); err != nil {
				return err
			}
			vms := make([]fleet.VM, 0, stormChurn+stormSurge)
			for i := 0; i < stormChurn; i++ {
				vms = append(vms, fleetVM(rng, fmt.Sprintf("c%d-%d", k, i)))
			}
			vms = append(vms, surgeVMs(stormSurge, fmt.Sprintf("s%d-", k))...)
			if e.kind == 1 {
				img.mark(e.hosts, plan)
			}

			r0 := readRuntime()
			t := time.Now()
			ds, err := e.arb.DepartBatch(departs)
			if err != nil {
				return fmt.Errorf("storm %d departures: %w", k, err)
			}
			ps, err := e.arb.PlaceBatch(vms)
			if err != nil {
				return fmt.Errorf("storm %d placements: %w", k, err)
			}
			batch := time.Since(t)
			t = time.Now()
			fs, err := e.arb.Failover()
			if err != nil {
				return fmt.Errorf("storm %d failover: %w", k, err)
			}
			failover := time.Since(t)
			r1 := readRuntime()

			if fs.Evacuated+fs.Lost > fs.Displaced {
				return fmt.Errorf("storm %d: evacuated %d + lost %d exceed displaced %d", k, fs.Evacuated, fs.Lost, fs.Displaced)
			}
			done := ds.Departed + ps.Placed + fs.Evacuated + fs.Departed
			w := &segs[e.index]
			w.lat = append(w.lat, us(failover))
			w.ops += done
			w.busy += (batch + failover).Seconds()
			o.attempted += int64(len(departs) + len(vms))
			offered += int64(len(vms))
			departed += int64(len(departs))
			refused += ps.Unplaced + fs.Lost
			evacuees += fs.Evacuated + fs.Lost
			if k+1 == densityStorm {
				dens = append(dens, densityPct(e.arb))
			}
			if e.kind == 0 {
				rt.add(r0, r1, done)
				continue
			}
			perSweep = append(perSweep, fs)
			sweeps = append(sweeps, sweepUs(e.hosts))
			if err := img.replay(e.hosts); err != nil {
				return fmt.Errorf("storm %d: %w", k, err)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	o.addSegments(cfg.trace, segs[:])
	failed := ratio("failed_ratio", "unplaced and lost VMs", float64(refused), "VMs offered for placement or evacuated", float64(offered+evacuees))
	// Read after a fixed storm, the density depends on the seed alone,
	// not on how many storms a segment fits in.
	density := medianOf("density_pct", "%", dens)
	density.Base = fmt.Sprintf("after storm %d, median of %d epochs", densityStorm, len(dens))
	if !cfg.trace {
		o.aliases = []alias{
			{"latency_p50_us", "failover_p50_ms", 1e-3, "ms"},
			{"latency_tail_us", "failover_p90_ms", 1e-3, "ms"},
		}
		o.named = []Metric{failed, density}
		return o, nil
	}
	o.layers = append(tally.layers(offered, departed, sweeps), failed, density)
	o.layers = append(o.layers, failoverLayers(perSweep)...)
	o.layers = append(o.layers, img.layers()...)
	o.layers = append(o.layers, fo.layers("VMs offered or departed", float64(offered+departed))...)
	o.layers = append(o.layers, rt.layers(tally.growth, tally.growthBase, "transitions of the first epoch")...)
	return o, nil
}

// surgeVMs returns n latency-sensitive 3/4-core VMs named prefix0..
func surgeVMs(n int, prefix string) []fleet.VM {
	vms := make([]fleet.VM, n)
	for i := range vms {
		vms[i] = fleet.VM{Name: fmt.Sprintf("%s%d", prefix, i), Util: planner.Util{Num: 3, Den: 4}, LatencyGoal: 20_000_000}
	}
	return vms
}

// edgeSurge sizes a surge of 3/4-core VMs to a tenth more than the
// regular hosts' free capacity, so it overflows the admission edge.
func edgeSurge(hosts []*fleet.Host) int {
	var free int64
	for _, h := range hosts {
		if s := h.Snapshot(); s.State == fleet.HostUp && !s.Spare {
			free += s.FreePPM
		}
	}
	return int(free * 11 / 10 / 750_000)
}

// failoverLayers reports what each traced Failover sweep did, per sweep.
func failoverLayers(sw []fleet.Stats) []Metric {
	per := func(name string, f func(fleet.Stats) int64) Metric {
		xs := make([]float64, len(sw))
		for i, s := range sw {
			xs[i] = float64(f(s))
		}
		return meanOf("fleet.failover."+name, "1/sweep", xs)
	}
	return []Metric{
		per("hosts_down", func(s fleet.Stats) int64 { return s.HostsDown }),
		per("displaced", func(s fleet.Stats) int64 { return s.Displaced }),
		per("recovered", func(s fleet.Stats) int64 { return s.Recovered }),
		per("evacuated", func(s fleet.Stats) int64 { return s.Evacuated }),
		per("evac_sheds", func(s fleet.Stats) int64 { return s.EvacSheds }),
		per("lost", func(s fleet.Stats) int64 { return s.Lost }),
	}
}

// imageProbe replays the crash-seam images a traced storm leaves in
// the armed hosts' ledgers, timing journal decode, table decode and
// core.Recover on each.
type imageProbe struct {
	from                              map[int]int // armed host -> ledger length before the storm
	decodeMs, recoverMs, bytes, tblUs []float64
}

func (p *imageProbe) mark(hosts []*fleet.Host, plan faults.HostCrashPlan) {
	p.from = make(map[int]int, len(plan.Crashes))
	for _, c := range plan.Crashes {
		p.from[c.Host] = len(hosts[c.Host].Ledger())
	}
}

func (p *imageProbe) replay(hosts []*fleet.Host) error {
	for h, from := range p.from {
		ledger := hosts[h].Ledger()
		for _, c := range ledger[min(from, len(ledger)):] {
			if c.Event != "crash" || c.Image == nil {
				continue
			}
			p.bytes = append(p.bytes, float64(len(c.Image)))
			t := time.Now()
			rep, err := journal.DecodeAll(c.Image)
			p.decodeMs = append(p.decodeMs, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("host %d crash image: %w", h, err)
			}
			for i := range rep.Records {
				t = time.Now()
				if _, err := rep.Records[i].Table(); err != nil {
					return fmt.Errorf("host %d crash image record %d: %w", h, i, err)
				}
				p.tblUs = append(p.tblUs, us(time.Since(t)))
			}
			t = time.Now()
			ctrl, _, _, err := core.Recover(journal.NewMemStoreFrom(c.Image), core.RecoverOptions{Sink: nullSink{}})
			p.recoverMs = append(p.recoverMs, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("host %d crash image recovery: %w", h, err)
			}
			if err := ctrl.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *imageProbe) layers() []Metric {
	return []Metric{
		medianOf("core.recover_ms", "ms", p.recoverMs),
		medianOf("journal.decode_ms", "ms", p.decodeMs),
		medianOf("journal.image_bytes", "bytes", p.bytes),
		medianOf("table.decode_us", "us", p.tblUs),
	}
}
