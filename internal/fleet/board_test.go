package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tableau/internal/faults"
	"tableau/internal/planner"
)

// lockedSnapshot reads a host's snapshot straight from its fields,
// under the host lock: the reference every published board entry must
// equal once the lock is free.
func lockedSnapshot(h *Host) Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot{
		Host:      h.id,
		Version:   h.version,
		FreeSlots: len(h.free),
		FreePPM:   int64(h.cores)*1_000_000 - h.usedPPM,
		State:     h.state,
		Spare:     h.spare,
	}
}

// checkBoard demands every host's board entry match its locked fields.
// A mutating path that forgot to publish leaves a stale version on the
// board, and placers reading it would conflict on that host forever.
func checkBoard(t *testing.T, a *Arbiter, after string) {
	t.Helper()
	for _, h := range a.hosts {
		if got, want := h.Snapshot(), lockedSnapshot(h); got != want {
			t.Fatalf("after %s: host %d board %+v, locked fields %+v", after, h.id, got, want)
		}
	}
}

// TestBoardCoherence walks one host through every mutating path —
// commit, admission reject, conflict, depart, fired crash, recover,
// failed recover, markDead, spare promotion, and a rolled-back commit —
// and checks the whole board after each.
func TestBoardCoherence(t *testing.T) {
	a := testArbiter(t, Config{
		Hosts: 3, Cores: 2, SlotsPerHost: 8, Placers: 1, SpareHosts: 1, Journal: true,
	})
	h0, h1, spare := a.hosts[0], a.hosts[1], a.hosts[2]
	checkBoard(t, a, "New")

	if res, err := h0.CommitPlacements(h0.Snapshot().Version, []VM{testVM("a", eighth()), testVM("b", eighth())}); err != nil || len(res.Placed) != 2 {
		t.Fatalf("commit: %+v %v", res, err)
	}
	checkBoard(t, a, "commit")

	res, err := h0.CommitPlacements(h0.Snapshot().Version, []VM{testVM("c", big()), testVM("d", big()), testVM("e", big())})
	if err != nil || len(res.Rejects) == 0 || len(res.Placed) == 0 {
		t.Fatalf("partly rejected commit: %+v %v", res, err)
	}
	checkBoard(t, a, "partly rejected commit")

	stale := h0.Snapshot().Version - 1
	if _, err := h0.CommitPlacements(stale, []VM{testVM("f", eighth())}); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale commit: %v, want ErrConflict", err)
	}
	checkBoard(t, a, "conflict")

	if _, err := h0.CommitDepartures(h0.Snapshot().Version, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	checkBoard(t, a, "depart")

	crashHost(t, h0, faults.CrashTorn, 7)
	checkBoard(t, a, "fired crash")
	if _, err := h0.Recover(); err != nil {
		t.Fatal(err)
	}
	checkBoard(t, a, "recover")

	crashHost(t, h1, faults.CrashFailStop, 5)
	if _, err := h1.Recover(); err == nil {
		t.Fatal("fail-stop host recovered without a journal image")
	}
	checkBoard(t, a, "failed recover")
	if err := h1.markDead(); err != nil {
		t.Fatal(err)
	}
	checkBoard(t, a, "markDead")
	a.promoteSpare()
	if spare.Spare() {
		t.Fatal("spare not promoted")
	}
	checkBoard(t, a, "spare promotion")

	// A flush on a closed controller rolls the whole batch back.
	if err := h0.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = h0.CommitPlacements(h0.Snapshot().Version, []VM{testVM("g", eighth())})
	if err != nil || len(res.Rejects) != 1 {
		t.Fatalf("rolled-back commit: %+v %v", res, err)
	}
	checkBoard(t, a, "rolled-back commit")
}

// TestBoardCoherenceFailoverSoak runs seeded crash storms through a
// journaled fleet mid-churn (the verify failover soak's shape) and
// checks the board after every batch and every Failover sweep, so each
// recover, evacuate and promotion path is covered under real traffic.
func TestBoardCoherenceFailoverSoak(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	utils := []planner.Util{quarter(), {Num: 1, Den: 2}, big()}
	var recovered, evacuated int64
	for seed := int64(0); seed < int64(seeds); seed++ {
		const hosts = 12
		a := testArbiter(t, Config{
			Hosts: hosts, Cores: 4, SlotsPerHost: 10, Placers: 3,
			SpareHosts: 2, MaxAttempts: 4, Journal: true,
		})
		rng := rand.New(rand.NewSource(seed))
		mkVMs := func(prefix string, n int) []VM {
			vms := make([]VM, n)
			for i := range vms {
				vms[i] = testVM(fmt.Sprintf("%s%d", prefix, i), utils[rng.Intn(len(utils))])
				if rng.Intn(100) < 40 {
					vms[i].Class = planner.BE
				}
			}
			return vms
		}
		if _, err := a.PlaceBatch(mkVMs("v", 60+rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		checkBoard(t, a, "fill")
		for storm := 0; storm < 2; storm++ {
			failStop := []int{0, 35, 65, 100}[(int(seed)+storm)%4]
			plan, err := faults.GenerateHostCrashPlan(rng.Int63(), hosts, 2+rng.Intn(2), failStop, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ArmCrashes(plan); err != nil {
				t.Fatal(err)
			}
			live := a.PlacedNames()
			n := len(live) / 4
			perm := rng.Perm(len(live))
			departs := make([]string, n)
			for i := range departs {
				departs[i] = live[perm[i]]
			}
			if _, err := a.DepartBatch(departs); err != nil {
				t.Fatal(err)
			}
			checkBoard(t, a, "storm departures")
			if _, err := a.PlaceBatch(mkVMs(fmt.Sprintf("c%d-", storm), n+6+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
			checkBoard(t, a, "storm placements")
			st, err := a.Failover()
			if err != nil {
				t.Fatal(err)
			}
			checkBoard(t, a, fmt.Sprintf("seed %d storm %d Failover", seed, storm))
			recovered += st.Recovered
			evacuated += st.Evacuated
		}
	}
	if recovered == 0 || evacuated == 0 {
		t.Fatalf("soak recovered %d hosts and evacuated %d VMs; both paths must run", recovered, evacuated)
	}
}

// TestBoardTornRead flips one host between two states that differ in
// every published field, under its lock, while readers poll Snapshot
// with no lock. Each read must be one whole state, never a mix.
func TestBoardTornRead(t *testing.T) {
	a := testArbiter(t, Config{Hosts: 2, Cores: 4, SlotsPerHost: 8, Placers: 1, SpareHosts: 1})
	h := a.hosts[1]
	h.mu.Lock()
	type fields struct {
		version uint64
		usedPPM int64
		free    []int
		state   HostState
		spare   bool
	}
	one := fields{h.version, h.usedPPM, h.free, h.state, h.spare}
	two := fields{one.version + 1, one.usedPPM + 250_000, one.free[:len(one.free)-1], HostDown, !one.spare}
	set := func(f fields) Snapshot {
		h.version, h.usedPPM, h.free, h.state, h.spare = f.version, f.usedPPM, f.free, f.state, f.spare
		h.publishLocked()
		return Snapshot{
			Host: h.id, Version: f.version, FreeSlots: len(f.free),
			FreePPM: int64(h.cores)*1_000_000 - f.usedPPM, State: f.state, Spare: f.spare,
		}
	}
	snapTwo := set(two)
	snapOne := set(one)
	h.mu.Unlock()

	var stop atomic.Bool
	var running, wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		running.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			running.Done()
			for {
				if s := h.Snapshot(); s != snapOne && s != snapTwo {
					t.Errorf("torn read: %+v is neither %+v nor %+v", s, snapOne, snapTwo)
					return
				}
				if stop.Load() {
					return
				}
			}
		}()
	}
	running.Wait()
	for i := 0; i < 20_000; i++ {
		h.mu.Lock()
		if i%2 == 0 {
			set(two)
		} else {
			set(one)
		}
		h.mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	checkBoard(t, a, "flips")
}
