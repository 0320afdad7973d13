// Adaptive: the reconfiguration loop the paper's related-work section
// anticipates on top of Tableau. A feedback controller watches each
// VM's consumption, grows reservations that run hot, shrinks idle ones,
// and pushes every new table through the dispatcher's lock-free switch
// — planning cost stays off the hot path no matter how often policy
// changes its mind.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/vmm"
	"tableau/internal/workload"
)

func main() {
	// Two cores, four VMs, everyone starting at an equal 25% share.
	sys := core.NewSystem(2, planner.Options{}, dispatch.Options{})
	names := []string{"web", "batch", "cron", "spare"}
	for _, n := range names {
		if _, err := sys.AddVM(core.VMConfig{
			Name:        n,
			Util:        core.Util{Num: 1, Den: 4},
			LatencyGoal: 20e6,
			Capped:      true,
		}); err != nil {
			log.Fatal(err)
		}
	}
	d, _, err := sys.BuildDispatcher()
	if err != nil {
		log.Fatal(err)
	}
	m := vmm.New(sim.New(3), 2, d, vmm.NoOverheads())

	// web: hungry — always has work. batch: moderate I/O loop.
	// cron: wakes for 2 ms of work every 100 ms. spare: asleep.
	m.AddVCPU("web", vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.Compute(1_000_000)
	}), 256, true)
	m.AddVCPU("batch", workload.StressIO(400_000, 400_000, 40, 1), 256, true)
	m.AddVCPU("cron", workload.StressIO(2_000_000, 100_000_000, 0, 2), 256, true)
	m.AddVCPU("spare", vmm.ProgramFunc(func(mm *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.BlockIndefinitely()
	}), 256, true)

	ctl := New(sys, d, m, Config{Interval: 500_000_000})
	m.Start()
	ctl.Start()

	fmt.Println("reservations over time (controller interval 500 ms):")
	fmt.Printf("  t=0.0s  %s\n", ctl.Describe())
	for s := 1; s <= 8; s++ {
		m.Run(int64(s) * 1_000_000_000)
		fmt.Printf("  t=%.1fs  %s\n", float64(s), ctl.Describe())
	}
	st := ctl.Stats()
	fmt.Printf("\ncontroller: %d ticks, %d grows, %d shrinks, %d replans (%d failed)\n",
		st.Ticks, st.Grows, st.Shrinks, st.Replans, st.PlanFails)
	for i, n := range names {
		fmt.Printf("  %-6s received %7.1f ms of CPU\n", n, float64(m.VCPUs[i].RunTime)/1e6)
	}
	fmt.Println("\nThe hungry web VM absorbed the reservations freed by idle VMs;")
	fmt.Println("each adjustment was a full plan-verify-switch cycle, with the")
	fmt.Println("running VMs' guarantees intact throughout.")
}
