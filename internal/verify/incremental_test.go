package verify

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/table"
)

// nullSink accepts every staged table; the equivalence tests drive the
// Controller directly (no machine), so there is nothing to adopt.
type nullSink struct{}

func (nullSink) PushTable(*table.Table) error { return nil }

// churnEpochs replays a scenario's churn storm through a Controller
// without the simulator: bursts are submitted and flushed in time
// order, exactly like the run harness does from engine callbacks. With
// scratch set every plan is computed from nothing; otherwise the
// production fast paths (cache, incremental replanning) are armed, as
// in Run.
func churnEpochs(t *testing.T, sc *Scenario, scratch bool) []core.Epoch {
	t.Helper()
	sys := core.NewSystem(sc.Cores, planner.Options{}, dispatch.Options{})
	if !scratch {
		sys.Cache = planner.NewCache(0)
		sys.Incremental = true
	}
	for slot := 0; slot < sc.NumSlots(); slot++ {
		vm := sc.VM(slot)
		id, err := sys.AddVM(core.VMConfig{
			Name: vm.Name, Util: vm.Util, LatencyGoal: vm.LatencyGoal, Capped: vm.Capped,
		})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if slot >= len(sc.VMs) {
			if err := sys.SetActive(id, false); err != nil {
				t.Fatalf("%s: %v", sc, err)
			}
		}
	}
	_, res, err := sys.Plan()
	if err != nil {
		t.Fatalf("%s: initial plan: %v", sc, err)
	}
	ctrl, err := core.NewController(sys, nullSink{}, res)
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	for i := 0; i < len(sc.Churn); {
		j := i
		for j < len(sc.Churn) && sc.Churn[j].At == sc.Churn[i].At {
			j++
		}
		for _, op := range sc.Churn[i:j] {
			kind := core.OpDeactivate
			if op.Activate {
				kind = core.OpActivate
			}
			ctrl.Submit(core.Op{Kind: kind, Slot: op.Slot})
		}
		if _, err := ctrl.Flush(); err != nil {
			t.Fatalf("%s: flush at %d: %v", sc, sc.Churn[i].At, err)
		}
		i = j
	}
	return ctrl.History()
}

// sortedGuarantees returns a copy ordered by vCPU id.
func sortedGuarantees(gs []table.Guarantee) []table.Guarantee {
	out := append([]table.Guarantee(nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i].VCPU < out[j].VCPU })
	return out
}

// TestIncrementalScratchEquivalence is the satellite determinism pin:
// over 200 seeded churn storms, the incremental pipeline (slice reuse,
// dirty-core diffing, the whole-problem cache) must commit
// epoch-for-epoch the same guarantees as scratch replanning, and every
// incremental table must pass table.Check against the scratch run's
// guarantees. Tables may legitimately differ in layout — the pinned
// partition is not the WFD partition — but never in what they promise
// or deliver.
func TestIncrementalScratchEquivalence(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 50
	}
	cfg := Config{ChurnPct: 100}
	checked := 0
	for seed := int64(1); seed <= n; seed++ {
		sc := Generate(seed, cfg)
		if len(sc.Churn) == 0 {
			continue
		}
		checked++
		inc := churnEpochs(t, sc, false)
		scr := churnEpochs(t, sc, true)
		if len(inc) != len(scr) {
			t.Errorf("seed %d (%s): %d incremental epochs vs %d scratch", seed, sc, len(inc), len(scr))
			continue
		}
		for k := range inc {
			if inc[k].Version != scr[k].Version {
				t.Errorf("seed %d: epoch %d version %d (incremental) vs %d (scratch)",
					seed, k, inc[k].Version, scr[k].Version)
				continue
			}
			ig, sg := sortedGuarantees(inc[k].Guarantees), sortedGuarantees(scr[k].Guarantees)
			if len(ig) != len(sg) {
				t.Errorf("seed %d epoch %d: %d guarantees (incremental) vs %d (scratch)",
					seed, inc[k].Version, len(ig), len(sg))
				continue
			}
			for x := range ig {
				if ig[x] != sg[x] {
					t.Errorf("seed %d epoch %d: guarantee mismatch: %+v (incremental) vs %+v (scratch)",
						seed, inc[k].Version, ig[x], sg[x])
				}
			}
			if err := inc[k].Table.Check(sg); err != nil {
				t.Errorf("seed %d epoch %d: incremental table fails scratch guarantees: %v",
					seed, inc[k].Version, err)
			}
		}
	}
	if checked < int(n)*3/4 {
		t.Fatalf("only %d/%d seeds produced churn at ChurnPct=100", checked, n)
	}
}

// stalePlanVia returns a planning backend that plans incrementally
// from its own previous plan, like a System with Incremental set. With
// stale set it seeds the stale-slice-reuse defect: a same-named,
// non-full vCPU whose reservation changed since the previous plan is
// planned from its previous spec. The reconfiguration is ignored, and
// the stale table still passes the planner's own final Check, because
// its guarantees derive from the same stale spec.
func stalePlanVia(stale bool) core.PlanFunc {
	var prev *planner.PrevPlan
	return func(specs []planner.VCPUSpec, opts planner.Options) (*planner.Result, error) {
		planned := specs
		if stale && prev != nil {
			old := make(map[string]planner.VCPUSpec, len(prev.Specs))
			for _, p := range prev.Specs {
				old[p.Name] = p
			}
			planned = append([]planner.VCPUSpec(nil), specs...)
			for i, c := range planned {
				p, ok := old[c.Name]
				if !ok || p.Util.IsFull() || c.Util.IsFull() {
					continue
				}
				if c.Util != p.Util || c.LatencyGoal != p.LatencyGoal || c.Capped != p.Capped {
					planned[i] = p
				}
			}
		}
		res, err := planner.PlanIncremental(planned, opts, prev)
		if err != nil {
			return nil, err
		}
		// The caller remaps res in place; keep a private planner-universe
		// copy to diff the next plan against.
		prev = &planner.PrevPlan{Specs: specs, Opts: opts, Res: res.Clone()}
		return res, nil
	}
}

// TestMutationSmokeStaleSliceReuse proves the epoch-fidelity oracle
// earns its keep against the planner defect the evict oracle cannot
// see: stale slice reuse treats a reconfigured VM as untouched and
// re-plans it from its stale pre-reconfiguration spec. The resulting
// epoch is completely self-consistent — its table passes Check against
// its own guarantees, nobody loses a guarantee, the trace agrees — and
// only the committed OpReconfigure's obligations reveal the lie.
//
// vm1's latency goal tightens from 20 ms to 5 ms mid-run. The correct
// planner marks vm1 dirty and re-synthesizes its core; the defective
// backend plans it with the stale 20 ms reservation. The clean twins
// run the default planning path and the same backend with the defect
// off.
func TestMutationSmokeStaleSliceReuse(t *testing.T) {
	sc := &Scenario{
		Seed:  11,
		Cores: 2,
		VMs: []VMSpec{
			{Name: "vm0.0", Util: planner.Util{Num: 1, Den: 2}, LatencyGoal: 20_000_000, Capped: true},
			{Name: "vm1.0", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true},
		},
		Spares: []VMSpec{
			{Name: "spare0.0", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Capped: true},
		},
		Churn:  []ChurnOp{{At: 40_000_000, Slot: 2, Activate: true}},
		Replan: &ReplanSpec{At: 60_000_000, Slot: 1, NewGoal: 5_000_000},
	}

	for _, twin := range []struct {
		name string
		k    runKnobs
	}{
		{"default planner", runKnobs{}},
		{"planVia backend", runKnobs{planVia: stalePlanVia(false)}},
	} {
		clean, err := runWith(sc, twin.k)
		if err != nil {
			t.Fatal(err)
		}
		if vs := CheckAll(clean); len(vs) != 0 {
			t.Fatalf("%s: correct planner flagged: %v", twin.name, vs)
		}
		if len(clean.Transitions) != 2 {
			t.Fatalf("%s: expected 2 transitions (arrival, reconfigure), got %+v", twin.name, clean.Transitions)
		}
	}

	evil, err := runWith(sc, runKnobs{planVia: stalePlanVia(true)})
	if err != nil {
		t.Fatal(err)
	}
	// The defect must have actually fired: the reconfiguration still
	// committed an epoch (history: initial, arrival, reconfigure).
	hist := evil.Controller.History()
	if len(hist) != 3 {
		t.Fatalf("stale-reuse defect did not install the reconfiguration epoch (history %d)", len(hist))
	}
	want := fmt.Sprintf("epoch %d blackout bound", hist[2].Version)
	found := false
	for _, v := range CheckAll(evil) {
		if v.Class == ClassContinuity && v.VCPU == 1 && strings.Contains(v.Detail, want) &&
			strings.Contains(v.Detail, "exceeds the committed latency goal 5000000 ns") {
			found = true
		}
	}
	if !found {
		t.Fatalf("epoch-fidelity oracle missed the stale reservation of slot 1; got %v", CheckAll(evil))
	}
}
