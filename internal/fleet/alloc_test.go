//go:build !race

// The race detector makes sync.Pool drop a random share of the items
// put back, so byte counts under -race do not measure the pooling.

package fleet

import (
	"fmt"
	"runtime"
	"testing"
)

// placeDepartBytes fills a fleet of the given size to BenchmarkFleetPlace's
// occupancy (about six eighth-core VMs per host) and returns the heap
// bytes one Place plus one Depart allocates, averaged over a steady run.
func placeDepartBytes(t *testing.T, hosts int) float64 {
	a := testArbiter(t, Config{Hosts: hosts, Cores: 8, Placers: 8, SpareHosts: hosts / 16, MaxAttempts: 4})
	fill := make([]VM, 6*hosts)
	for i := range fill {
		fill[i] = testVM(fmt.Sprintf("f%d", i), eighth())
	}
	if bs, err := a.PlaceBatch(fill); err != nil || bs.Placed != int64(len(fill)) {
		t.Fatalf("fill: %+v %v", bs, err)
	}
	live := a.PlacedNames()
	cycle := func(i int) {
		name := fmt.Sprintf("p%d", i)
		if _, err := a.Place(testVM(name, eighth())); err != nil {
			t.Fatal(err)
		}
		live = append(live, name)
		if err := a.Depart(live[0]); err != nil {
			t.Fatal(err)
		}
		live = live[1:]
	}
	const warm, ops = 200, 1000
	for i := 0; i < warm; i++ {
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+ops; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / ops
}

// TestPlaceBytesIndependentOfFleetSize pins that a placement allocates
// nothing per host: Place decides from a pooled copy of the headroom
// board, so B/op at 1000 hosts stays within a small constant of B/op
// at 32. A per-attempt copy of every host's snapshot would add tens of
// kilobytes per op at 1000 hosts.
func TestPlaceBytesIndependentOfFleetSize(t *testing.T) {
	small := placeDepartBytes(t, 32)
	wide := placeDepartBytes(t, 1000)
	t.Logf("Place+Depart: %.0f B/op at 32 hosts, %.0f B/op at 1000 hosts", small, wide)
	if wide > small+4<<10 {
		t.Fatalf("Place+Depart allocates %.0f B/op at 1000 hosts vs %.0f at 32: the read path grew a per-host allocation", wide, small)
	}
}
