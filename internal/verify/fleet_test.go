package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tableau/internal/fleet"
	"tableau/internal/planner"
)

// runFleetStorm drives one seeded random churn storm through a small
// fleet and returns the arbiter for the oracle to inspect. With
// doublePlace set, every PlaceBatch is followed by doublePlaceFirst;
// the VMs it double-placed are returned.
func runFleetStorm(t *testing.T, seed int64, doublePlace bool) (*fleet.Arbiter, []string) {
	t.Helper()
	a, err := fleet.New(fleet.Config{
		Hosts: 10, Cores: 4, SlotsPerHost: 10, Placers: 3,
		SpareHosts: 2, MaxAttempts: 4, Cache: planner.NewCache(256),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	var doubled []string
	place := func(vms []fleet.VM) {
		if _, err := a.PlaceBatch(vms); err != nil {
			t.Fatal(err)
		}
		if !doublePlace {
			return
		}
		if name := doublePlaceFirst(a, vms); name != "" {
			doubled = append(doubled, name)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	utils := []planner.Util{{Num: 1, Den: 8}, {Num: 1, Den: 4}, {Num: 1, Den: 2}, {Num: 3, Den: 4}}
	mkVMs := func(prefix string, n int) []fleet.VM {
		vms := make([]fleet.VM, n)
		for i := range vms {
			vms[i] = fleet.VM{
				Name:        fmt.Sprintf("s%d-%s%d", seed, prefix, i),
				Util:        utils[rng.Intn(len(utils))],
				LatencyGoal: 20_000_000,
			}
		}
		// Class draw last, after every structural draw: ~40% best-effort,
		// so the surge waves trigger real class-aware sheds on full hosts.
		for i := range vms {
			if rng.Intn(100) < 40 {
				vms[i].Class = planner.BE
			}
		}
		return vms
	}

	place(mkVMs("v", 20+rng.Intn(25)))
	for round := 0; round < 2; round++ {
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
		place(mkVMs(fmt.Sprintf("c%d-", round), n+rng.Intn(8)))
	}
	// A surge of big VMs past the admission edge: rejects, spare-pool
	// sheds and unplaced tails must all leave the ledgers consistent.
	place(mkVMs("g", 12+rng.Intn(10)))
	return a, doubled
}

// doublePlaceFirst seeds the double-place defect after one PlaceBatch:
// the batch's first placed VM is also committed to another Up host
// with a free slot, behind the registry's back. It returns the VM's
// name, or "" when no other host takes it.
func doublePlaceFirst(a *fleet.Arbiter, batch []fleet.VM) string {
	registry := a.Assignments()
	for _, vm := range batch {
		owner, placed := registry[vm.Name]
		if !placed {
			continue
		}
		for _, h := range a.Hosts() {
			if h.ID() == owner {
				continue
			}
			snap := h.Snapshot()
			if snap.State != fleet.HostUp || snap.FreeSlots == 0 {
				continue
			}
			if res, err := h.CommitPlacements(snap.Version, []fleet.VM{vm}); err == nil && len(res.Placed) == 1 {
				return vm.Name
			}
		}
		return ""
	}
	return ""
}

// TestCheckFleetSeeds soaks the cross-host continuity oracle: 120
// seeded random mixed-class churn storms (30 under -short), each
// replayed through CheckFleet — every admitted VM must be live on
// exactly one host at every epoch seam, every host's guarantee history
// must track its committed ledger exactly, and every shed must name a
// best-effort guest that was live on the shedding host. The soak must
// actually exercise the shed path across the seed set.
func TestCheckFleetSeeds(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	var sheds int64
	for seed := 0; seed < seeds; seed++ {
		a, _ := runFleetStorm(t, int64(seed), false)
		if vs := CheckFleet(a); len(vs) != 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: %d fleet continuity violations", seed, len(vs))
		}
		sheds += a.Stats().Shed
	}
	if sheds == 0 {
		t.Fatal("no storm exercised the class-aware shed path — the soak lost its teeth")
	}
}

// TestMutationSmokeDoublePlace seeds the double-place defect (a VM
// committed to a second host behind the registry's back) into seeded
// storms and demands the oracle convict every double-placed VM as live
// on two hosts, while the same storms without the defect stay clean.
func TestMutationSmokeDoublePlace(t *testing.T) {
	convicted := 0
	for seed := int64(0); seed < 5; seed++ {
		clean, _ := runFleetStorm(t, seed, false)
		if vs := CheckFleet(clean); len(vs) != 0 {
			t.Fatalf("seed %d: clean twin flagged: %v", seed, vs)
		}
		a, doubled := runFleetStorm(t, seed, true)
		vs := CheckFleet(a)
		for _, name := range doubled {
			prefix := fmt.Sprintf("VM %q placed on host ", name)
			found := false
			for _, v := range vs {
				if strings.HasPrefix(v.Detail, prefix) && strings.Contains(v.Detail, " while live on host ") {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d: double placement of %q escaped the fleet continuity oracle; got %v", seed, name, vs)
			}
			convicted++
		}
	}
	if convicted == 0 {
		t.Fatal("the double-place defect never fired on any seed")
	}
}
