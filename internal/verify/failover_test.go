package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/planner"
)

// runFailoverStorm drives seeded crash storms through a journaled
// fleet mid-churn and returns the arbiter plus the accumulated
// failover stats. failStopPct steers the recover-vs-evacuate mix.
func runFailoverStorm(t *testing.T, seed int64, failStopPct int) (*fleet.Arbiter, fleet.Stats) {
	t.Helper()
	const hosts = 12
	a, err := fleet.New(fleet.Config{
		Hosts: hosts, Cores: 4, SlotsPerHost: 10, Placers: 3,
		SpareHosts: 2, MaxAttempts: 4, Cache: planner.NewCache(256),
		Journal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })

	rng := rand.New(rand.NewSource(seed))
	// Dense menu (up to 3/4-core) and a near-capacity fill: evacuation
	// then really runs under pressure, so LS evacuees trigger
	// best-effort sheds on full hosts and unplaceable tails go lost —
	// both truthfully accounted or the oracle flags it.
	utils := []planner.Util{{Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 3, Den: 4}}
	mkVMs := func(prefix string, n int) []fleet.VM {
		vms := make([]fleet.VM, n)
		for i := range vms {
			vms[i] = fleet.VM{
				Name:        fmt.Sprintf("s%d-%s%d", seed, prefix, i),
				Util:        utils[rng.Intn(len(utils))],
				LatencyGoal: 20_000_000,
			}
		}
		for i := range vms {
			if rng.Intn(100) < 40 {
				vms[i].Class = planner.BE
			}
		}
		return vms
	}

	if _, err := a.PlaceBatch(mkVMs("v", 60+rng.Intn(20))); err != nil {
		t.Fatal(err)
	}
	var total fleet.Stats
	for storm := 0; storm < 2; storm++ {
		plan, err := faults.GenerateHostCrashPlan(rng.Int63(), hosts, 2+rng.Intn(2), failStopPct, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ArmCrashes(plan); err != nil {
			t.Fatal(err)
		}
		// Churn while armed: the crashes fire as commit traffic reaches
		// the planned appends. Departures hitting a downed host defer.
		live := a.PlacedNames()
		n := len(live) / 4
		perm := rng.Perm(len(live))
		departs := make([]string, n)
		for i := 0; i < n; i++ {
			departs[i] = live[perm[i]]
		}
		if _, err := a.DepartBatch(departs); err != nil {
			t.Fatal(err)
		}
		if _, err := a.PlaceBatch(mkVMs(fmt.Sprintf("c%d-", storm), n+6+rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
		st, err := a.Failover()
		if err != nil {
			t.Fatal(err)
		}
		total.HostsDown += st.HostsDown
		total.Recovered += st.Recovered
		total.Displaced += st.Displaced
		total.Evacuated += st.Evacuated
		total.EvacSheds += st.EvacSheds
		total.Lost += st.Lost
		total.Shed += st.Shed
	}
	return a, total
}

// TestFailoverSoak soaks the failure-seam oracle: 200 seeded crash
// storms (40 under -short) at a swept recover-vs-evacuate mix, each
// checked for zero continuity violations across the crash, recover and
// evacuate seams. The soak must actually exercise both resolution
// paths and displace real guests, or it has no teeth.
func TestFailoverSoak(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var agg fleet.Stats
	for seed := 0; seed < seeds; seed++ {
		// Sweep the fail-stop share so every mix band recurs: pure
		// recovery, mixed, and pure evacuation storms.
		failStopPct := []int{0, 35, 65, 100}[seed%4]
		a, st := runFailoverStorm(t, int64(seed), failStopPct)
		if vs := CheckFleet(a); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: %d failure-seam violations", seed, len(vs))
		}
		agg.HostsDown += st.HostsDown
		agg.Recovered += st.Recovered
		agg.Displaced += st.Displaced
		agg.Evacuated += st.Evacuated
		agg.EvacSheds += st.EvacSheds
		agg.Lost += st.Lost
	}
	if agg.HostsDown == 0 || agg.Recovered == 0 || agg.Evacuated == 0 || agg.Displaced == 0 {
		t.Fatalf("soak teeth lost: %d down, %d recovered, %d evacuated, %d displaced — some path never ran", agg.HostsDown, agg.Recovered, agg.Evacuated, agg.Displaced)
	}
	if agg.EvacSheds == 0 || agg.Lost == 0 {
		t.Fatalf("soak teeth lost: %d evac sheds, %d lost — evacuation never ran under pressure", agg.EvacSheds, agg.Lost)
	}
}

// swapEvacClasses returns a copy of recs in which the evacuate seam
// recs[h].ledger[i] lists its LS evacuees as BE and its BE evacuees as
// LS. Replayed against the real LS-first re-placements, that is the
// ledger of a failover that evacuated the best-effort wave first.
func swapEvacClasses(recs []hostRecord, h, i int) []hostRecord {
	out := append([]hostRecord(nil), recs...)
	out[h].ledger = append([]fleet.Commit(nil), recs[h].ledger...)
	c := &out[h].ledger[i]
	c.EvacLS, c.EvacBE = c.EvacBE, c.EvacLS
	return out
}

// TestMutationSmokeEvacuateBEFirst seeds the BE-first evacuation
// defect into real fail-stop storms by swapping one evacuate seam's
// class lists, and demands the cross-seam oracle convict exactly that
// seam's wave order, while the unswapped ledgers stay clean.
func TestMutationSmokeEvacuateBEFirst(t *testing.T) {
	caught := false
	for seed := int64(0); seed < 12 && !caught; seed++ {
		// Pure fail-stop storms: every down host evacuates, maximizing
		// seams with both classes displaced.
		a, _ := runFailoverStorm(t, seed, 100)
		recs, registry := hostRecords(a), a.Assignments()
		if vs := checkFleet(recs, registry); len(vs) != 0 {
			t.Fatalf("seed %d: clean twin flagged: %v", seed, vs)
		}
		for h := range recs {
			for i, c := range recs[h].ledger {
				if c.Event != "evacuate" || len(c.EvacLS) == 0 || len(c.EvacBE) == 0 {
					continue
				}
				vs := checkFleet(swapEvacClasses(recs, h, i), registry)
				if len(vs) == 0 {
					continue // one wave had nothing re-placed: no order to invert
				}
				want := fmt.Sprintf("host %d evacuation re-placed a best-effort evacuee", recs[h].id)
				for _, v := range vs {
					if !strings.HasPrefix(v.Detail, want) {
						t.Fatalf("seed %d: swapped seam raised %q, want only %q", seed, v.Detail, want)
					}
				}
				caught = true
			}
		}
	}
	if !caught {
		t.Fatal("BE-first evacuation escaped the failure-seam oracle on every seed")
	}
}

// TestCheckFleetEdges covers the oracle's degenerate inputs: a
// single-host fleet (no cross-host seam at all), an empty ledger
// (nothing ever placed), and a fleet whose every VM has departed.
func TestCheckFleetEdges(t *testing.T) {
	t.Run("single-host", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 1, Cores: 4, SlotsPerHost: 8, Placers: 1, Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		vms := []fleet.VM{
			{Name: "a", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000},
			{Name: "b", Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000, Class: planner.BE},
		}
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if err := a.Hosts()[0].Arm(faults.CrashPlan{Kind: faults.CrashTorn, AtAppend: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		// The crashing departure defers; recovery brings the only host
		// back and the deferred departure then resolves.
		if err := a.Depart("a"); err == nil {
			t.Fatal("departure on the crashing host should defer")
		}
		if st, err := a.Failover(); err != nil || st.Recovered != 1 {
			t.Fatalf("failover: %+v %v", st, err)
		}
		if err := a.Depart("a"); err != nil {
			t.Fatal(err)
		}
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("single-host fleet: %v", vs)
		}
	})
	t.Run("empty-ledger", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 3, Cores: 2, Placers: 1, SpareHosts: 1, Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("empty fleet: %v", vs)
		}
	})
	t.Run("all-departed", func(t *testing.T) {
		a, err := fleet.New(fleet.Config{Hosts: 3, Cores: 4, SlotsPerHost: 8, Placers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close() })
		var vms []fleet.VM
		for i := 0; i < 9; i++ {
			vms = append(vms, fleet.VM{Name: fmt.Sprintf("d%d", i), Util: planner.Util{Num: 1, Den: 8}, LatencyGoal: 20_000_000})
		}
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if _, err := a.DepartBatch(a.PlacedNames()); err != nil {
			t.Fatal(err)
		}
		if len(a.Assignments()) != 0 {
			t.Fatal("registry not empty after departing everything")
		}
		if vs := CheckFleet(a); len(vs) != 0 {
			t.Fatalf("all-departed fleet: %v", vs)
		}
	})
}
