package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/journal"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/vmm"
)

// host-replan runs one 44-core host (the paper's Table 2 machine) with
// 200 slots of diverse reservations through small churn batches.
const (
	replanCores   = 44
	replanSlots   = 200
	replanRotate  = 256 // flushes per journal segment
	replanHistory = 64  // retained epochs, as a long-lived host would bound them
	// The batches keep the reserved utilization between these shares of
	// the host's cores.
	replanLow, replanHigh = 0.55, 0.75
)

var (
	replanUtils = []planner.Util{{Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 3, Den: 8}, {Num: 1, Den: 2}, {Num: 5, Den: 8}, {Num: 3, Den: 4}}
	replanGoals = []int64{1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000, 100_000_000}
)

func replanSpec(rng *rand.Rand) (planner.Util, int64) {
	return replanUtils[rng.Intn(len(replanUtils))], replanGoals[rng.Intn(len(replanGoals))]
}

func utilOf(u planner.Util) float64 { return float64(u.Num) / float64(u.Den) }

// replanHost is one assembled host: a journaled controller over a
// dispatcher on an idle machine. The sink and store are the probes,
// which time only while switched on.
type replanHost struct {
	sys   *core.System
	ctrl  *core.Controller
	sink  *timedSink
	store *timedStore
	mem   *journal.MemStore
}

// newReplanHost builds the seeded population, plans it and attaches
// the journal.
func newReplanHost(seed int64) (*replanHost, error) {
	rng := rand.New(rand.NewSource(seed))
	sys := core.NewSystem(replanCores, planner.Options{}, dispatch.Options{})
	sys.Cache = planner.NewCache(1024)
	sys.Incremental = true
	var reserved float64
	for i := 0; i < replanSlots; i++ {
		u, goal := replanSpec(rng)
		if _, err := sys.AddVM(core.VMConfig{Name: fmt.Sprintf("h%d", i), Util: u, LatencyGoal: goal, Capped: true}); err != nil {
			return nil, err
		}
		if reserved+utilOf(u) <= replanLow*replanCores {
			reserved += utilOf(u)
			continue
		}
		if err := sys.SetActive(i, false); err != nil {
			return nil, err
		}
	}
	d, res, err := sys.BuildDispatcher()
	if err != nil {
		return nil, fmt.Errorf("initial plan: %w", err)
	}
	// A started machine that never runs gives PushTable its time base;
	// nothing adopts a staged table.
	m := vmm.New(sim.New(seed), replanCores, d, vmm.NoOverheads())
	for i := 0; i < sys.NumSlots(); i++ {
		m.AddVCPU(sys.Config(i).Name, vmm.ProgramFunc(func(*vmm.Machine, *vmm.VCPU, int64) vmm.Action {
			return vmm.Compute(1_000_000)
		}), 256, true)
	}
	m.Start()
	h := &replanHost{sys: sys, sink: &timedSink{d: d}, store: &timedStore{}}
	if h.ctrl, err = core.NewController(sys, h.sink, res); err != nil {
		return nil, err
	}
	h.ctrl.MaxHistory = replanHistory
	return h, h.rotate()
}

// rotate starts a fresh journal segment: the current epoch becomes the
// new segment's baseline record.
func (h *replanHost) rotate() error {
	h.mem = journal.NewMemStore()
	h.store.Store = h.mem // one probe times every segment, keeping its samples
	return h.ctrl.AttachJournal(journal.NewWriter(h.store))
}

// flush submits one batch and flushes it, returning the epoch it
// installed (0 when the previous epoch stands) and how many of its ops
// were refused. A batch the planner finds no feasible plan for is
// rolled back whole and all its ops are refused. Anything that fails
// after planning (the table push, the epoch's encoding, the journal
// append) is a fault of the program on an idle sink and an in-memory
// store, and fails the run.
func (h *replanHost) flush(ops []core.Op) (uint64, int, error) {
	pushes := h.sink.pushes
	h.ctrl.SubmitBatch(ops)
	tr, err := h.ctrl.Flush()
	switch {
	case err != nil && h.sink.pushes != pushes:
		return 0, 0, fmt.Errorf("flush failed after planning: %w", err)
	case err != nil:
		return 0, len(ops), nil
	case tr == nil:
		return 0, 0, errors.New("flush of a non-empty batch returned no transition")
	}
	return tr.Version, len(tr.Rejected), nil
}

// checkRecovery replays the current journal segment through
// core.Recover and demands it reproduce the installed epoch's bytes.
func (h *replanHost) checkRecovery() (decodeMs, recoverMs float64, size int, err error) {
	img, err := h.mem.Load()
	if err != nil {
		return 0, 0, 0, err
	}
	t := time.Now()
	if _, err := journal.DecodeAll(img); err != nil {
		return 0, 0, 0, err
	}
	decodeMs = ms(time.Since(t))
	t = time.Now()
	rc, _, rep, err := core.Recover(journal.NewMemStoreFrom(img), core.RecoverOptions{
		Sink: nullSink{}, Incremental: true, MaxHistory: replanHistory,
	})
	recoverMs = ms(time.Since(t))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recovering the journal: %w", err)
	}
	defer rc.Close()
	want := h.ctrl.Epoch()
	if got := rc.Epoch(); got.Version != want.Version || !bytes.Equal(rep.RecoveredBytes, want.Bytes) || !bytes.Equal(got.Bytes, want.Bytes) {
		return 0, 0, 0, fmt.Errorf("recovery resumed on epoch %d, want %d with identical bytes", got.Version, want.Version)
	}
	return decodeMs, recoverMs, len(img), nil
}

// batch draws 1-4 ops that steer the reserved utilization into
// [replanLow, replanHigh] of the cores: activations, deactivations and
// reconfigurations of distinct slots.
func (h *replanHost) batch(rng *rand.Rand) []core.Op {
	var active, idle []int
	var reserved float64
	for i := 0; i < replanSlots; i++ {
		if h.sys.Active(i) {
			active = append(active, i)
			reserved += utilOf(h.sys.Config(i).Util)
		} else {
			idle = append(idle, i)
		}
	}
	used := make(map[int]bool)
	pick := func(from []int) (int, bool) {
		for tries := 0; tries < 8 && len(from) > 0; tries++ {
			if s := from[rng.Intn(len(from))]; !used[s] {
				used[s] = true
				return s, true
			}
		}
		return 0, false
	}
	n := 1 + rng.Intn(4)
	ops := make([]core.Op, 0, n)
	for tries := 0; len(ops) < n && tries < 4*n; tries++ {
		r := rng.Intn(10)
		switch {
		case reserved < replanLow*replanCores:
			r = 0
		case reserved > replanHigh*replanCores:
			r = 9
		}
		switch {
		case r < 4:
			if s, ok := pick(idle); ok {
				ops = append(ops, core.Op{Kind: core.OpActivate, Slot: s})
				reserved += utilOf(h.sys.Config(s).Util)
			}
		case r < 8:
			if s, ok := pick(active); ok {
				u, goal := replanSpec(rng)
				ops = append(ops, core.Op{Kind: core.OpReconfigure, Slot: s, Util: u, LatencyGoal: goal})
				reserved += utilOf(u) - utilOf(h.sys.Config(s).Util)
			}
		default:
			if s, ok := pick(active); ok {
				ops = append(ops, core.Op{Kind: core.OpDeactivate, Slot: s})
				reserved -= utilOf(h.sys.Config(s).Util)
			}
		}
	}
	return ops
}

// replanProbe collects the traced flushes' layer timings.
type replanProbe struct {
	selfUs, planUs               []float64
	validateUs, checkUs, encUs   []float64
	tblBytes                     []float64
	decodeMs, recoverMs, imgSize []float64
	sinkShare, storeShare        []float64
	planShare, tableShare        []float64
	covered                      []float64
	overSpan                     int64
	replay                       replanner
	pushUs, appendUs             []float64 // from the sink and store probes
	syncUs, recBytes             []float64
}

// replanner replays each traced flush's active population through the
// planner's public entry point the way the flush plans it: incremental
// from the previous replayed plan, with a slice cache of its own, so
// the host's cache counters stay the program's alone.
type replanner struct {
	slices *planner.SliceCache
	prev   *planner.PrevPlan
}

func (rp *replanner) plan(sys *core.System) (float64, error) {
	var specs []planner.VCPUSpec
	for i := 0; i < sys.NumSlots(); i++ {
		if !sys.Active(i) {
			continue
		}
		c := sys.Config(i)
		specs = append(specs, planner.VCPUSpec{Name: c.Name, Util: c.Util, LatencyGoal: c.LatencyGoal, Capped: c.Capped, Class: c.Class})
	}
	opts := planner.Options{Cores: sys.Cores(), Slices: rp.slices}
	t := time.Now()
	res, err := planner.PlanIncremental(specs, opts, rp.prev)
	d := time.Since(t)
	if err != nil {
		return 0, err
	}
	rp.prev = &planner.PrevPlan{Specs: specs, Opts: opts, Res: res}
	return us(d), nil
}

// hostReplan: one goroutine submits seeded churn batches and flushes
// each into a journaled epoch.
func hostReplan(cfg runConfig) (*outcome, error) {
	// The p99 is pooled: a segment's flushes can fall short of the 1000
	// a p99 of its own needs.
	o := &outcome{tailQ: 0.99, poolTail: true}
	var (
		segs               [segments]window
		probe              = replanProbe{replay: replanner{slices: planner.NewSliceCache(0)}}
		rt                 rtAcc
		refused, submitted int64
		ctrl               core.Stats
		cache              planner.CacheStats
		growth             float64
		growthFlushes      int64
	)
	// Each measured segment runs a host of its own, built from its own
	// sub-seed, so a run averages over several populations rather than
	// riding on one. Two timed builds per segment; the second one runs.
	for e := 0; e < segments; e++ {
		kind := segmentKind(cfg.trace, e)
		var h *replanHost
		for r := 0; r < 2; r++ {
			if h != nil {
				h.ctrl.Close()
			}
			liveHeap()
			start := time.Now()
			var err error
			if h, err = newReplanHost(cfg.seed*1_000_003 + int64(e)); err != nil {
				return nil, err
			}
			o.setup[kind] = append(o.setup[kind], time.Since(start).Seconds())
		}
		heap := liveHeap()
		o.heap = append(o.heap, heap/1e6)
		ctrl0, cache0 := h.ctrl.ControllerStats(), h.sys.Cache.FullStats()
		probe.replay.prev = nil // a new population: the replay starts from scratch too
		rng := rand.New(rand.NewSource(cfg.seed*15_485_863 + int64(e)))
		deadline := time.Now().Add(cfg.dur / segments)
		flushes := int64(0)
		for time.Now().Before(deadline) {
			ops := h.batch(rng)
			if len(ops) == 0 {
				continue
			}
			h.sink.on, h.sink.cur = kind == 1, 0
			h.store.on, h.store.cur = kind == 1, 0
			r0 := readRuntime()
			t := time.Now()
			version, n, err := h.flush(ops)
			took := time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("segment %d: %w", e, err)
			}
			if cfg.trace && kind == 0 {
				rt.add(r0, readRuntime(), 1)
			}
			flushes++
			submitted += int64(len(ops))
			refused += int64(n)
			w := &segs[e]
			w.busy += took.Seconds()
			w.ops++
			// A rolled-back or wholly refused batch leaves the previous
			// epoch standing.
			if version != 0 {
				w.lat = append(w.lat, us(took))
				ep := h.ctrl.Epoch()
				if ep.Version != version {
					return nil, fmt.Errorf("flush installed %d but the controller reports epoch %d", version, ep.Version)
				}
				if kind == 0 {
					if err := ep.Table.Check(ep.Guarantees); err != nil {
						return nil, fmt.Errorf("epoch %d: %w", ep.Version, err)
					}
				} else if err := probe.traced(h, ep, took); err != nil {
					return nil, fmt.Errorf("epoch %d: %w", ep.Version, err)
				}
			}
			if flushes%replanRotate == 0 {
				if err := probe.rotate(h, kind == 1); err != nil {
					return nil, err
				}
			}
		}
		// The gate: recovery from the final journal segment reproduces
		// the final epoch.
		if err := probe.rotate(h, cfg.trace); err != nil {
			return nil, err
		}
		addStats(&ctrl, ctrl0, h.ctrl.ControllerStats())
		addCacheStats(&cache, cache0, h.sys.Cache.FullStats())
		probe.pushUs = append(probe.pushUs, h.sink.us...)
		probe.appendUs = append(probe.appendUs, h.store.appendUs...)
		probe.syncUs = append(probe.syncUs, h.store.syncUs...)
		probe.recBytes = append(probe.recBytes, h.store.recBytes...)
		if e == 0 && cfg.trace {
			growth, growthFlushes = liveHeap()-heap, flushes
		}
		if err := h.ctrl.Close(); err != nil {
			return nil, err
		}
	}
	for _, w := range segs {
		o.attempted += w.ops
	}
	o.addSegments(cfg.trace, segs[:])

	failed := ratio("failed_ratio", "rejected or rolled-back ops", float64(refused), "ops submitted", float64(submitted))
	if !cfg.trace {
		o.aliases = []alias{
			{"latency_p50_us", "flush_p50_us", 1, "us"},
			{"latency_tail_us", "flush_p99_us", 1, "us"},
		}
		o.named = []Metric{failed}
		return o, nil
	}
	o.layers = append(controllerLayers(ctrl, cache, "ops submitted", float64(submitted)), failed)
	o.layers = append(o.layers,
		tailMetric("core.flush_self_us.p50", "us", probe.selfUs, 0.5),
		tailMetric("core.flush_self_us.p99", "us", probe.selfUs, 0.99),
		medianOf("core.recover_ms", "ms", probe.recoverMs),
		tailMetric("planner.plan_us.p50", "us", probe.planUs, 0.5),
		tailMetric("planner.plan_us.p99", "us", probe.planUs, 0.99),
		medianOf("table.validate_us", "us", probe.validateUs),
		medianOf("table.check_us", "us", probe.checkUs),
		medianOf("table.encode_us", "us", probe.encUs),
		medianOf("table.bytes", "bytes", probe.tblBytes),
		tailMetric("journal.append_us.p50", "us", probe.appendUs, 0.5),
		tailMetric("journal.append_us.p99", "us", probe.appendUs, 0.99),
		medianOf("journal.sync_us", "us", probe.syncUs),
		medianOf("journal.record_bytes", "bytes", probe.recBytes),
		medianOf("journal.decode_ms", "ms", probe.decodeMs),
		medianOf("journal.image_bytes", "bytes", probe.imgSize),
		medianOf("dispatch.push_table_us", "us", probe.pushUs),
		medianOf("recon.sink_share", "ratio", probe.sinkShare),
		medianOf("recon.store_share", "ratio", probe.storeShare),
		medianOf("recon.plan_share", "ratio", probe.planShare),
		medianOf("recon.table_share", "ratio", probe.tableShare),
		medianOf("recon.covered_share", "ratio", probe.covered),
		ratio("recon.over_span", "flushes whose probes exceed the span", float64(probe.overSpan), "traced flushes", float64(len(probe.covered))),
	)
	o.layers = append(o.layers, rt.layers(growth, float64(growthFlushes), "flushes of the first epoch")...)
	return o, nil
}

// traced runs the layer probes on one traced flush's installed epoch:
// the table is validated, checked against its guarantees and encoded
// under the clock, the population is replanned from scratch, and the
// probes are reconciled against the flush span.
func (probe *replanProbe) traced(h *replanHost, ep core.Epoch, span time.Duration) error {
	t := time.Now()
	if err := ep.Table.Validate(); err != nil {
		return err
	}
	validate := time.Since(t)
	t = time.Now()
	if err := ep.Table.Check(ep.Guarantees); err != nil {
		return err
	}
	check := time.Since(t)
	t = time.Now()
	enc, err := ep.Table.AppendEncodedCompact(nil)
	if err != nil {
		return err
	}
	encode := time.Since(t)
	plan, err := probe.replay.plan(h.sys)
	if err != nil {
		return fmt.Errorf("planner replay: %w", err)
	}
	probe.selfUs = append(probe.selfUs, us(span-h.sink.cur-h.store.cur))
	probe.planUs = append(probe.planUs, plan)
	probe.validateUs = append(probe.validateUs, us(validate))
	probe.checkUs = append(probe.checkUs, us(check))
	probe.encUs = append(probe.encUs, us(encode))
	probe.tblBytes = append(probe.tblBytes, float64(len(enc)))

	total := us(span)
	shares := []float64{us(h.sink.cur) / total, us(h.store.cur) / total, plan / total, us(validate+check+encode) / total}
	probe.sinkShare = append(probe.sinkShare, shares[0])
	probe.storeShare = append(probe.storeShare, shares[1])
	probe.planShare = append(probe.planShare, shares[2])
	probe.tableShare = append(probe.tableShare, shares[3])
	covered := shares[0] + shares[1] + shares[2] + shares[3]
	probe.covered = append(probe.covered, covered)
	if covered > 1 {
		probe.overSpan++
	}
	return nil
}

// rotate syncs the journal, checks recovery on the current segment
// (recording the replay timings when record is set) and starts the
// next segment.
func (probe *replanProbe) rotate(h *replanHost, record bool) error {
	h.store.on = record
	if err := h.ctrl.Journal().Sync(); err != nil {
		return err
	}
	dec, rec, size, err := h.checkRecovery()
	if err != nil {
		return err
	}
	if record {
		probe.decodeMs = append(probe.decodeMs, dec)
		probe.recoverMs = append(probe.recoverMs, rec)
		probe.imgSize = append(probe.imgSize, float64(size))
	}
	h.store.on = false
	return h.rotate()
}
