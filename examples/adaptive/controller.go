// This file implements the reconfiguration loop the paper points
// to in its related-work discussion (Sec. 8): "Similar adaptive
// techniques can be used with Tableau to periodically optimize
// scheduling tables." Because Tableau splits planning from dispatching,
// an adaptive policy never touches the hot path — it just observes VM
// behaviour, adjusts reservations, and pushes regenerated tables
// through the same lock-free switch used for VM lifecycle events.
//
// The controller here is a deliberately simple high/low-watermark
// policy: a VM that consistently consumes most of its reservation grows
// by a multiplicative step, a VM that leaves most of it idle shrinks,
// and every proposal is admission-checked (with growth scaled back
// proportionally when the host lacks headroom) before the planner runs.

package main

import (
	"fmt"

	"tableau/internal/core"
	"tableau/internal/dispatch"
	"tableau/internal/planner"
	"tableau/internal/vmm"
)

// Config tunes the controller. Zero values select the documented
// defaults.
type Config struct {
	// Interval between adaptations; default 500 ms.
	Interval int64
	// HighWater: grow a VM that used more than this fraction of its
	// reservation over the last interval. Default 0.85.
	HighWater float64
	// LowWater: shrink a VM that used less than this fraction.
	// Default 0.35.
	LowWater float64
	// GrowFactor and ShrinkFactor are the multiplicative steps applied
	// to the reservation (in PPM). Defaults 1.25 and 0.8.
	GrowFactor   float64
	ShrinkFactor float64
	// MinPPM and MaxPPM bound every reservation. Defaults: 50_000
	// (5% of a core) and 1_000_000 (a full core).
	MinPPM int64
	MaxPPM int64
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 500_000_000
	}
	if c.HighWater == 0 {
		c.HighWater = 0.85
	}
	if c.LowWater == 0 {
		c.LowWater = 0.35
	}
	if c.GrowFactor == 0 {
		c.GrowFactor = 1.25
	}
	if c.ShrinkFactor == 0 {
		c.ShrinkFactor = 0.8
	}
	if c.MinPPM == 0 {
		c.MinPPM = 50_000
	}
	if c.MaxPPM == 0 {
		c.MaxPPM = 1_000_000
	}
	return c
}

// Stats reports what the controller has done.
type Stats struct {
	Ticks     int
	Grows     int
	Shrinks   int
	Replans   int
	PlanFails int
}

// Controller adapts a running system's reservations. Create with New
// and call Start once the machine is assembled (before or after
// machine.Start, as long as the dispatcher is attached).
type Controller struct {
	cfg  Config
	sys  *core.System
	disp *dispatch.Dispatcher
	m    *vmm.Machine

	lastRun []int64
	stats   Stats
}

// New creates a controller adapting sys's reservations on m, pushing
// regenerated tables into disp. The machine's vCPU ids must equal the
// system's slot ids (the same convention the dispatcher requires).
func New(sys *core.System, disp *dispatch.Dispatcher, m *vmm.Machine, cfg Config) *Controller {
	return &Controller{
		cfg:     cfg.withDefaults(),
		sys:     sys,
		disp:    disp,
		m:       m,
		lastRun: make([]int64, sys.NumSlots()),
	}
}

// Start arms the periodic adaptation.
func (c *Controller) Start() {
	c.m.Eng.After(c.cfg.Interval, c.tick)
}

// Stats returns a copy of the controller's counters.
func (c *Controller) Stats() Stats { return c.stats }

func (c *Controller) tick(now int64) {
	c.stats.Ticks++
	changed := c.adapt()
	if changed {
		if _, err := c.sys.Push(c.disp); err != nil {
			// Leave the previous table in place; the system stays sound.
			c.stats.PlanFails++
		} else {
			c.stats.Replans++
		}
	}
	c.m.Eng.After(c.cfg.Interval, c.tick)
}

// adapt updates slot reservations from observed usage and reports
// whether anything changed.
func (c *Controller) adapt() bool {
	type proposal struct {
		id   int
		from int64 // current ppm
		to   int64 // proposed ppm
	}
	var props []proposal
	var othersPPM int64
	for id := 0; id < c.sys.NumSlots(); id++ {
		cfgVM := c.sys.Config(id)
		curPPM := cfgVM.Util.PPM()
		used := c.m.VCPUs[id].RunTime - c.lastRun[id]
		c.lastRun[id] = c.m.VCPUs[id].RunTime
		reserved := c.cfg.Interval * curPPM / 1_000_000
		if reserved <= 0 {
			othersPPM += curPPM
			continue
		}
		frac := float64(used) / float64(reserved)
		switch {
		case frac > c.cfg.HighWater && curPPM < c.cfg.MaxPPM:
			to := clampPPM(int64(float64(curPPM)*c.cfg.GrowFactor), c.cfg.MinPPM, c.cfg.MaxPPM)
			props = append(props, proposal{id, curPPM, to})
		case frac < c.cfg.LowWater && curPPM > c.cfg.MinPPM:
			to := clampPPM(int64(float64(curPPM)*c.cfg.ShrinkFactor), c.cfg.MinPPM, c.cfg.MaxPPM)
			props = append(props, proposal{id, curPPM, to})
		default:
			othersPPM += curPPM
		}
	}
	if len(props) == 0 {
		return false
	}
	// Admission: total proposed must fit the host. If growth would
	// overshoot, scale every growth back proportionally (shrinks always
	// help, so they are kept).
	capacity := int64(c.sys.Cores()) * 1_000_000
	var proposed int64
	for _, p := range props {
		proposed += p.to
	}
	if othersPPM+proposed > capacity {
		headroom := capacity - othersPPM
		var shrinkPPM, growFromPPM, growToPPM int64
		for _, p := range props {
			if p.to <= p.from {
				shrinkPPM += p.to
			} else {
				growFromPPM += p.from
				growToPPM += p.to
			}
		}
		growBudget := headroom - shrinkPPM
		if growBudget < growFromPPM {
			// No room to grow at all: drop growth proposals.
			growBudget = growFromPPM
		}
		for i := range props {
			p := &props[i]
			if p.to > p.from && growToPPM > 0 {
				// Scale this grow so all grows together fit growBudget.
				p.to = p.from + (p.to-p.from)*(growBudget-growFromPPM)/(growToPPM-growFromPPM)
				p.to = clampPPM(p.to, c.cfg.MinPPM, c.cfg.MaxPPM)
			}
		}
	}
	changed := false
	for _, p := range props {
		if p.to == p.from {
			continue
		}
		cfgVM := c.sys.Config(p.id)
		if err := c.sys.Reconfigure(p.id, planner.UtilFromPPM(p.to), cfgVM.LatencyGoal); err != nil {
			continue
		}
		changed = true
		if p.to > p.from {
			c.stats.Grows++
		} else {
			c.stats.Shrinks++
		}
	}
	return changed
}

func clampPPM(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Describe returns a one-line summary of current reservations, for
// examples and debugging.
func (c *Controller) Describe() string {
	s := ""
	for id := 0; id < c.sys.NumSlots(); id++ {
		cfgVM := c.sys.Config(id)
		s += fmt.Sprintf("%s=%.0f%% ", cfgVM.Name, float64(cfgVM.Util.PPM())/10_000)
	}
	return s
}

// Machine exposes the controller's machine (for tests).
func (c *Controller) Machine() *vmm.Machine { return c.m }
