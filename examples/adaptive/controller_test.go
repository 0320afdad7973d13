package main

import (
	"fmt"
	"testing"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/sim"
	"tableau/internal/vmm"
)

// rig assembles a 2-core system with the given per-VM programs, all
// slots starting at 25% with a 20 ms goal, capped.
func rig(t *testing.T, progs []vmm.Program, cfg Config) (*Controller, *core.System, *vmm.Machine) {
	t.Helper()
	sys := core.NewSystem(2, planner.Options{}, dispatch.Options{})
	for i := range progs {
		if _, err := sys.AddVM(core.VMConfig{
			Name:        fmt.Sprintf("vm%d", i),
			Util:        core.Util{Num: 1, Den: 4},
			LatencyGoal: 20_000_000,
			Capped:      true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	d, _, err := sys.BuildDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	m := vmm.New(sim.New(1), 2, d, vmm.NoOverheads())
	for i, p := range progs {
		m.AddVCPU(fmt.Sprintf("vm%d", i), p, 256, true)
	}
	ctl := New(sys, d, m, cfg)
	m.Start()
	ctl.Start()
	return ctl, sys, m
}

func spinner() vmm.Program {
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.Compute(1_000_000)
	})
}

func sleeper() vmm.Program {
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		return vmm.BlockIndefinitely()
	})
}

// lightLoad computes c every 100 ms.
func lightLoad(c int64) vmm.Program {
	phase := 0
	return vmm.ProgramFunc(func(m *vmm.Machine, v *vmm.VCPU, now int64) vmm.Action {
		phase++
		if phase%2 == 1 {
			return vmm.Compute(c)
		}
		return vmm.Block(100_000_000)
	})
}

func TestHungryVMGrows(t *testing.T) {
	ctl, sys, m := rig(t, []vmm.Program{spinner(), lightLoad(1_000_000)}, Config{})
	before := sys.Config(0).Util.PPM()
	m.Run(5_000_000_000)
	after := sys.Config(0).Util.PPM()
	if after <= before {
		t.Errorf("hungry VM reservation did not grow: %d -> %d", before, after)
	}
	st := ctl.Stats()
	if st.Grows == 0 || st.Replans == 0 {
		t.Errorf("stats = %+v", st)
	}
	// The grown reservation translated into actual service: the spinner
	// should collect clearly more than the initial 25% share over the
	// last second.
	beforeRT := m.VCPUs[0].RunTime
	m.Run(6_000_000_000)
	gained := m.VCPUs[0].RunTime - beforeRT
	if gained < 320_000_000 { // > 32% of a core over 1 s
		t.Errorf("grown VM received only %d ns in 1 s", gained)
	}
}

func TestIdleVMShrinks(t *testing.T) {
	ctl, sys, m := rig(t, []vmm.Program{sleeper(), spinner()}, Config{})
	before := sys.Config(0).Util.PPM()
	m.Run(5_000_000_000)
	after := sys.Config(0).Util.PPM()
	if after >= before {
		t.Errorf("idle VM reservation did not shrink: %d -> %d", before, after)
	}
	if after < ctl.cfg.MinPPM {
		t.Errorf("reservation below floor: %d", after)
	}
	if ctl.Stats().Shrinks == 0 {
		t.Error("no shrinks recorded")
	}
}

func TestAdmissionNeverExceeded(t *testing.T) {
	// Eight hungry VMs on two cores: everyone wants to grow but the
	// host has no headroom. Total reservations must never exceed the
	// machine.
	var progs []vmm.Program
	for i := 0; i < 8; i++ {
		progs = append(progs, spinner())
	}
	_, sys, m := rig(t, progs, Config{Interval: 200_000_000})
	for step := 0; step < 20; step++ {
		m.Run(m.Now() + 200_000_000)
		var total int64
		for id := 0; id < sys.NumSlots(); id++ {
			total += sys.Config(id).Util.PPM()
		}
		if total > 2_000_000 {
			t.Fatalf("step %d: total reservations %d ppm exceed 2 cores", step, total)
		}
	}
}

func TestStableLoadConverges(t *testing.T) {
	// A VM using ~60% of its reservation sits between the watermarks:
	// after an initial settling phase, no further replans should occur.
	ctl, _, m := rig(t, []vmm.Program{lightLoad(15_000_000), lightLoad(15_000_000)}, Config{})
	m.Run(3_000_000_000)
	settled := ctl.Stats().Replans
	m.Run(6_000_000_000)
	if got := ctl.Stats().Replans; got > settled+1 {
		t.Errorf("controller kept replanning a stable load: %d -> %d", settled, got)
	}
}

func TestDescribe(t *testing.T) {
	ctl, _, _ := rig(t, []vmm.Program{sleeper()}, Config{})
	if s := ctl.Describe(); s == "" {
		t.Error("empty description")
	}
	if ctl.Machine() == nil {
		t.Error("machine accessor nil")
	}
}
