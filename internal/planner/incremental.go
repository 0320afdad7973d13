package planner

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"tableau/internal/periodic"
	"tableau/internal/table"
)

// This file is the incremental replanning layer: when consecutive plans
// share most of their population — the common case under churn, where a
// burst perturbs 3 of 16 cores — the previous Result tells us exactly
// which per-core assignments are still valid. PlanIncremental diffs the
// new specs against the previous ones, pins every core whose VMs are
// unchanged, and re-runs the full pipeline with only the dirty VMs
// flowing through partitioning. The per-core SliceCache independently
// memoizes the EDF simulations themselves, so even a scratch plan (or a
// pinned core whose multiset reappears) skips re-simulation.
//
// Safety argument: pinning only narrows the placement search — every
// pinned task re-enters the core states through the same accounting
// (utilization, constrained-deadline marking) as a fresh placement, and
// the final table is re-validated, re-coalesced against freshly derived
// guarantees, and re-Checked in full. A stale or bogus pin can
// therefore only cause a planning *failure* (which falls back to a
// scratch plan), never an unverified table.

// PrevPlan threads the previous planning outcome into the next plan.
// Res must be in the planner universe (vCPU ids = spec order, core ids
// = logical) — i.e. captured before core.System remaps it — and is
// treated as read-only.
type PrevPlan struct {
	Specs []VCPUSpec
	Opts  Options
	Res   *Result
}

// pinning is the planWith input derived from a PrevPlan diff.
type pinning struct {
	// coreTasks[i] holds the tasks frozen onto planner core i, already
	// renumbered into the current spec universe (Group = current spec
	// index).
	coreTasks []periodic.TaskSet
	// pinnedSpec marks current spec indices whose placement is frozen.
	pinnedSpec map[int]bool
	// cores counts non-empty coreTasks entries (Result.PinnedCores).
	cores int
	// prevTable is the previous plan's finished table (planner
	// universe, read-only). Pinned cores adopt their previous final
	// schedule from it verbatim (allocations renumbered, slice index
	// transplanted), so synthesis, coalescing, and slice building all
	// run O(dirty cores); any core whose allocation list still comes
	// out identical additionally reuses the old slice index.
	prevTable *table.Table
	// renumber maps previous spec indices to current ones for every
	// clean VM — the id translation schedule adoption applies.
	renumber map[int]int
}

// PlanIncremental is Plan with reuse of the previous result: cores
// whose entire VM population is unchanged keep their task assignments
// verbatim and only the dirty remainder is re-placed. When the diff
// yields nothing reusable, the options are incompatible, or the pinned
// plan fails (pinning shrinks the search space, so a population the
// full planner can place may be unplaceable with most cores frozen),
// it falls back to a scratch Plan — the complete search and the
// correctness baseline.
//
// The result is not guaranteed to be byte-identical to a scratch plan
// (placement history differs); it is guaranteed to pass the same
// admission, validation, and guarantee checks, with guarantees derived
// from the same specs — see TestIncrementalEquivalence.
func PlanIncremental(specs []VCPUSpec, opts Options, prev *PrevPlan) (*Result, error) {
	pin := pinFromPrev(specs, opts, prev)
	if pin == nil {
		return planWith(specs, opts, nil)
	}
	res, err := planWith(specs, opts, pin)
	if err != nil {
		return planWith(specs, opts, nil)
	}
	return res, nil
}

// pinFromPrev diffs the new planning input against the previous plan
// and returns the pinning, or nil when nothing can be reused.
//
// Dirty-core diff rules:
//   - a VM is clean iff it appears in both populations under the same
//     name with identical (Util, LatencyGoal, Capped); arrivals,
//     departures, and reconfigurations are dirty;
//   - a split VM is clean only if every core hosting one of its pieces
//     is otherwise clean (pinning a subset of a C=D chain would
//     double-place the VM);
//   - a core is pinned iff every task on it belongs to a clean VM;
//   - dedicated (U=1) and cluster-scheduled cores are never pinned:
//     dedicated placement is trivial to recompute, and DP-Fair slots
//     are a joint product of the whole cluster;
//   - every Options field that influences placement must match
//     (SplitRotation excepted: it only biases the ordering of the
//     re-placed remainder); affinity disables pinning outright, since
//     System renumbers affinity sets onto surviving cores and a pin
//     would bypass that narrowing.
func pinFromPrev(specs []VCPUSpec, opts Options, prev *PrevPlan) *pinning {
	if prev == nil || prev.Res == nil || len(prev.Res.CoreTasks) == 0 {
		return nil
	}
	if prev.Res.Stage == StageClustered {
		return nil
	}
	po, co := prev.Opts.withDefaults(), opts.withDefaults()
	if po.Cores != co.Cores ||
		po.CoalesceThreshold != co.CoalesceThreshold ||
		po.MaxSlicesPerCore != co.MaxSlicesPerCore ||
		po.TableLength != co.TableLength ||
		po.DisableSplitting != co.DisableSplitting ||
		po.DisableClustering != co.DisableClustering ||
		po.Peephole != co.Peephole ||
		po.SplitCompensationPPM != co.SplitCompensationPPM {
		return nil
	}
	if len(po.Affinity) > 0 || len(co.Affinity) > 0 {
		return nil
	}
	if len(prev.Res.CoreTasks) != co.Cores {
		return nil
	}

	cur := make(map[string]int, len(specs))
	for i, s := range specs {
		cur[s.Name] = i
	}
	clean := make(map[int]int) // prev spec index -> cur spec index
	for j, p := range prev.Specs {
		i, ok := cur[p.Name]
		if !ok || p.Util.IsFull() {
			continue
		}
		c := specs[i]
		if c.Util == p.Util && c.LatencyGoal == p.LatencyGoal && c.Capped == p.Capped {
			clean[j] = i
		}
	}
	if len(clean) == 0 {
		return nil
	}

	// A core is clean iff every task on it belongs to a clean VM.
	coreClean := make([]bool, co.Cores)
	for cid, ts := range prev.Res.CoreTasks {
		if len(ts) == 0 {
			continue
		}
		coreClean[cid] = true
		for _, tk := range ts {
			if _, ok := clean[tk.Group]; !ok {
				coreClean[cid] = false
				break
			}
		}
	}
	// A multi-piece (split) group is pinnable only if all its hosting
	// cores are clean; a core hosting an unpinnable group is not pinned.
	hostCores := make(map[int][]int) // prev group -> hosting cores
	for cid, ts := range prev.Res.CoreTasks {
		for _, tk := range ts {
			hostCores[tk.Group] = append(hostCores[tk.Group], cid)
		}
	}
	pinnable := func(cid int) bool {
		if !coreClean[cid] {
			return false
		}
		for _, tk := range prev.Res.CoreTasks[cid] {
			for _, host := range hostCores[tk.Group] {
				if !coreClean[host] {
					return false
				}
			}
		}
		return true
	}

	pin := &pinning{
		coreTasks:  make([]periodic.TaskSet, co.Cores),
		pinnedSpec: make(map[int]bool),
		prevTable:  prev.Res.Table,
		renumber:   clean,
	}
	for cid, ts := range prev.Res.CoreTasks {
		if len(ts) == 0 || !pinnable(cid) {
			continue
		}
		pinned := make(periodic.TaskSet, len(ts))
		for k, tk := range ts {
			tk.Group = clean[tk.Group]
			pinned[k] = tk
		}
		pin.coreTasks[cid] = pinned
		pin.cores++
		for _, tk := range pinned {
			pin.pinnedSpec[tk.Group] = true
		}
	}
	if pin.cores == 0 {
		return nil
	}
	return pin
}

// renumberAllocs maps a previous plan's final core schedule into the
// current spec universe: intervals are copied byte-for-byte, vCPU ids
// are translated through renum (Idle passes through). ok is false if
// any id has no translation — callers must then fall back to fresh
// synthesis for that core rather than adopt a schedule referencing a
// vanished VM.
func renumberAllocs(in []table.Alloc, renum map[int]int) ([]table.Alloc, bool) {
	out := make([]table.Alloc, len(in))
	for i, a := range in {
		v := a.VCPU
		if v != table.Idle {
			nv, ok := renum[v]
			if !ok {
				return nil, false
			}
			v = nv
		}
		out[i] = table.Alloc{Start: a.Start, End: a.End, VCPU: v}
	}
	return out, true
}

// seedPinned installs the pinned task sets into the core states before
// partitioning, reconstructing the split bookkeeping for pinned C=D
// chains. A pinned core that is now dedicated (the U=1 population in
// front of it grew) is a conflict: the caller falls back to scratch.
func seedPinned(cores []*coreState, pin *pinning, res *Result) error {
	type groupAgg struct {
		pieces int
		cores  []int
	}
	byGroup := make(map[int]*groupAgg)
	var order []int
	for cid, ts := range pin.coreTasks {
		if len(ts) == 0 {
			continue
		}
		c := cores[cid]
		if c.dedicated {
			return fmt.Errorf("planner: pinned core %d is now dedicated", cid)
		}
		for _, tk := range ts {
			c.add(tk)
			g := byGroup[tk.Group]
			if g == nil {
				g = &groupAgg{}
				byGroup[tk.Group] = g
				order = append(order, tk.Group)
			}
			g.pieces++
			g.cores = append(g.cores, cid)
		}
	}
	for _, grp := range order {
		g := byGroup[grp]
		if g.pieces < 2 {
			continue
		}
		res.Stage = StageSemiPartitioned
		res.Splits = append(res.Splits, SplitInfo{VCPU: grp, Pieces: g.pieces, Cores: g.cores})
	}
	res.Incremental = true
	res.PinnedCores = pin.cores
	return nil
}

// SliceCache memoizes per-core EDF simulations across plans, keyed by
// the core's ordered task parameters. SimulateEDF reads nothing but
// (Offset, WCET, Deadline, Period) and task order, so the key omits
// names and groups: two cores — in the same plan or plans apart — whose
// task parameters coincide share one simulation, and a hit returns the
// byte-identical slots a fresh simulation would produce (vCPU
// renumbering happens later, in tileSlots, via the caller's task set).
// Cached results are shared and must be treated as read-only.
//
// Entries are LRU-evicted against a byte budget, like the
// whole-problem Cache.
type SliceCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	order    *list.List // LRU: front = most recent
	hits     int64
	misses   int64
	evicted  int64
}

type sliceEntry struct {
	key  string
	sim  *periodic.EDFResult
	size int64
}

// NewSliceCache returns a slice cache bounded by maxBytes (estimated
// footprint); <= 0 selects a default of 16 MiB.
func NewSliceCache(maxBytes int64) *SliceCache {
	if maxBytes <= 0 {
		maxBytes = 16 << 20
	}
	return &SliceCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// sliceKey canonicalizes a core's task set down to the fields the EDF
// simulation reads.
func sliceKey(ts periodic.TaskSet) string {
	buf := make([]byte, 0, len(ts)*32)
	for _, tk := range ts {
		buf = strconv.AppendInt(buf, tk.Offset, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.WCET, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.Deadline, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, tk.Period, 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

func (sc *SliceCache) lookup(key string) (*periodic.EDFResult, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.entries[key]; ok {
		sc.order.MoveToFront(el)
		sc.hits++
		return el.Value.(*sliceEntry).sim, true
	}
	sc.misses++
	return nil, false
}

func (sc *SliceCache) insert(key string, sim *periodic.EDFResult) {
	size := int64(len(key)) + int64(len(sim.Slots))*24 + 64
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, ok := sc.entries[key]; ok {
		// A concurrent synthesis job beat us; both simulations of one
		// key are identical, keep the first.
		return
	}
	el := sc.order.PushFront(&sliceEntry{key: key, sim: sim, size: size})
	sc.entries[key] = el
	sc.bytes += size
	for sc.bytes > sc.maxBytes && sc.order.Len() > 1 {
		oldest := sc.order.Back()
		ent := oldest.Value.(*sliceEntry)
		sc.order.Remove(oldest)
		delete(sc.entries, ent.key)
		sc.bytes -= ent.size
		sc.evicted++
	}
}

// SliceCacheStats are the cache's cumulative counters and current size.
type SliceCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

// Stats returns the counters and current footprint.
func (sc *SliceCache) Stats() SliceCacheStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SliceCacheStats{
		Hits: sc.hits, Misses: sc.misses, Evictions: sc.evicted,
		Entries: sc.order.Len(), Bytes: sc.bytes,
	}
}

// simulateCore runs (or recalls) one core's EDF simulation, reporting
// whether the slice cache served it.
func simulateCore(ts periodic.TaskSet, coreH int64, sc *SliceCache) (*periodic.EDFResult, bool, error) {
	if sc == nil {
		sim, err := periodic.SimulateEDF(ts, coreH)
		return sim, false, err
	}
	key := sliceKey(ts)
	if sim, ok := sc.lookup(key); ok {
		return sim, true, nil
	}
	sim, err := periodic.SimulateEDF(ts, coreH)
	if err != nil {
		return nil, false, err
	}
	sc.insert(key, sim)
	return sim, false, nil
}
