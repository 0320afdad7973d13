package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tableau/internal/planner"
)

// TestArbiterConcurrentPlaceDepart hammers the live optimistic
// protocol from many goroutines under -race: concurrent placers race
// commits onto the same hosts (losers must conflict and retry, never
// corrupt), departures race placements, and when the dust settles the
// registry, the hosts' occupancy, the counters and the headroom board
// must agree.
func TestArbiterConcurrentPlaceDepart(t *testing.T) {
	a := testArbiter(t, Config{
		Hosts: 8, Cores: 4, SlotsPerHost: 16, Placers: 4,
		SpareHosts: 1, MaxAttempts: 8,
	})
	const goroutines, perG = 6, 15
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("g%d-vm%d", g, i)
				_, err := a.Place(VM{Name: name, Util: planner.Util{Num: 1, Den: 4}, LatencyGoal: 20_000_000})
				if errors.Is(err, ErrUnplaced) {
					continue
				}
				if err != nil {
					t.Errorf("Place(%s): %v", name, err)
					return
				}
				if i%2 == 0 {
					if err := a.Depart(name); err != nil {
						t.Errorf("Depart(%s): %v", name, err)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	asg := a.Assignments()
	live := 0
	for _, h := range a.Hosts() {
		live += h.VMs()
	}
	if live != len(asg) {
		t.Fatalf("hosts hold %d VMs but the registry has %d — a placement leaked past the protocol", live, len(asg))
	}
	st := a.Stats()
	if st.Placed-st.Departed != int64(len(asg)) {
		t.Fatalf("placed %d - departed %d != %d live", st.Placed, st.Departed, len(asg))
	}
	for name, h := range asg {
		snap := a.hosts[h].Snapshot()
		if snap.Host != h {
			t.Fatalf("registry maps %q to host %d but snapshot says %d", name, h, snap.Host)
		}
	}
	checkBoard(t, a, "concurrent Place/Depart")
}
