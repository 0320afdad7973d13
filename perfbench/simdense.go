package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"tableau/internal/dispatch"
	"tableau/internal/experiments"
	"tableau/internal/vmm"
	"tableau/internal/workload"
)

// sim-dense is the paper's Fig. 5 scenario at Table 2 scale: 44 guest
// cores at 4 VMs per core under capped Tableau with I/O background
// load, the vantage VM running the intrinsic-latency probe.
const (
	simCores   = 44
	simGoal    = 20_000_000
	simHorizon = 2_000_000_000 // simulated ns per repetition
	simStep    = 5_000_000     // simulated ns per timed step
	simWarm    = 100_000_000   // steps before this are warm-up, not latency samples
	simReps    = 5             // set-up repetitions per run
)

func simConfig(seed, goal int64, timed bool) experiments.ScenarioConfig {
	return experiments.ScenarioConfig{
		GuestCores: simCores, VMsPerCore: 4, Scheduler: experiments.Tableau,
		Capped: true, Background: experiments.BGIO, LatencyGoal: goal, Seed: seed, Timed: timed,
	}
}

// simStats is everything a repetition simulates; it must not depend on
// the host, on the probes or on the repetition.
type simStats struct {
	Machine  vmm.Stats
	Dispatch dispatch.Stats
	MaxDelay int64
	Samples  int64
}

// simRep is one simulated repetition's host-side measurements.
type simRep struct {
	stats          simStats
	stepUs         []float64
	run            time.Duration // wall time inside Machine.Run
	pickNs, wakeNs float64       // timed scheduler means, net of the timer
	schedulerTime  time.Duration // wall time inside the timed scheduler
}

func runSim(seed int64, timed bool) (simRep, error) {
	probe := &workload.Probe{Chunk: 10_000}
	sc, err := experiments.Build(simConfig(seed, simGoal, timed), probe.Program())
	if err != nil {
		return simRep{}, err
	}
	r := simRep{stepUs: make([]float64, 0, simHorizon/simStep)}
	sc.M.Start()
	for at := int64(simStep); at <= simHorizon; at += simStep {
		t := time.Now()
		sc.M.Run(at)
		d := time.Since(t)
		r.run += d
		if at > simWarm {
			r.stepUs = append(r.stepUs, us(d))
		}
	}
	sc.M.Stop()
	r.stats = simStats{Machine: sc.M.Stats, Dispatch: sc.Dispatcher.Stats(), MaxDelay: probe.MaxDelay(), Samples: probe.Delays().Count()}
	if ts := sc.Timed; ts != nil {
		r.pickNs = ts.Pick.MeanNs() - ts.TimerOverheadNs()
		r.wakeNs = ts.Wake.MeanNs() - ts.TimerOverheadNs()
		r.schedulerTime = ts.Pick.Total + ts.Wake.Total + ts.Block.Total
	}
	return r, nil
}

// simDense runs repetitions in pairs for the measured phase: both
// repetitions of a pair simulate the same sub-seed, and must simulate
// exactly the same statistics whether traced or not. Successive pairs
// take successive sub-seeds, so a run averages over several simulated
// histories rather than riding on one.
func simDense(cfg runConfig) (*outcome, error) {
	// p90, so that each repetition is a window of its own.
	o := &outcome{tailQ: 0.9}
	// Set-up is scenario assembly with its table planned: each
	// repetition's latency goal differs by a microsecond, so each one
	// misses the planner cache. The measured phase builds scenarios of
	// its own.
	var sc *experiments.Scenario
	for r := 0; r < simReps; r++ {
		kind := segmentKind(cfg.trace, r)
		liveHeap()
		start := time.Now()
		var err error
		if sc, err = experiments.Build(simConfig(cfg.seed, simGoal-int64(r)*1000, kind == 1), (&workload.Probe{}).Program()); err != nil {
			return nil, err
		}
		o.setup[kind] = append(o.setup[kind], time.Since(start).Seconds())
		o.heap = append(o.heap, liveHeap()/1e6)
		runtime.KeepAlive(sc) // the heap figure includes the assembled scenario
	}
	heap := liveHeap()

	var (
		ref, first                simStats // the pair's first repetition; the run's first one
		rt                        rtAcc
		pick, wake, hostNs, speed []float64
	)
	deadline := time.Now().Add(cfg.dur)
	pairs := 0
	// A started pair always completes.
	for k := 0; k%2 == 1 || time.Now().Before(deadline); k++ {
		kind := segmentKind(cfg.trace, k)
		r0 := readRuntime()
		r, err := runSim(cfg.seed*1_000_003+int64(k/2), kind == 1)
		if err != nil {
			return nil, err
		}
		if kind == 0 {
			rt.add(r0, readRuntime(), r.stats.Machine.ScheduleOps)
		}
		if k == 0 {
			first = r.stats
		}
		if k%2 == 0 {
			ref = r.stats
		} else if !reflect.DeepEqual(ref, r.stats) {
			return nil, fmt.Errorf("repetition %d (traced=%v) simulated different statistics than its pair", k, kind == 1)
		} else {
			pairs++
		}
		o.wins[kind] = append(o.wins[kind], window{ops: r.stats.Machine.ScheduleOps, busy: r.run.Seconds(), lat: r.stepUs})
		o.attempted += simHorizon / simStep
		speed = append(speed, float64(simHorizon)/1e9/r.run.Seconds())
		if kind == 1 {
			pick = append(pick, r.pickNs)
			wake = append(wake, r.wakeNs)
			hostNs = append(hostNs, float64((r.run-r.schedulerTime).Nanoseconds())/float64(r.stats.Machine.ScheduleOps))
		}
	}
	if pairs < 1 {
		return nil, fmt.Errorf("no pair of repetitions completed")
	}
	// The simulated figures come from the first pair, which every run
	// simulates, so they compare across commits.
	delay := Metric{Name: "guest_delay_max_ms", Value: float64(first.MaxDelay) / 1e6, Unit: "ms", Samples: int(first.Samples),
		Base: "the first pair's simulation"}
	speedM := medianOf("sim_speed", "sim_s/s", speed)
	if !cfg.trace {
		o.named = []Metric{speedM, delay}
		return o, nil
	}
	st := first
	perSimS := func(name string, n int64) Metric {
		return per(name, "1/sim_s", "simulated ops", float64(n), "simulated s", simHorizon/1e9)
	}
	growth := liveHeap() - heap
	o.layers = []Metric{
		speedM, delay,
		medianOf("dispatch.schedule_ns", "ns", pick),
		medianOf("dispatch.wakeup_ns", "ns", wake),
		ratio("dispatch.table_share", "table dispatches", float64(st.Dispatch.TableDispatches),
			"dispatches", float64(st.Dispatch.TableDispatches+st.Dispatch.SecondLevelDispatches)),
		count("dispatch.idle_decisions", st.Dispatch.IdleDecisions),
		count("dispatch.table_switches", st.Dispatch.TableSwitches),
		perSimS("vmm.schedule_ops", st.Machine.ScheduleOps),
		perSimS("vmm.wakeup_ops", st.Machine.WakeupOps),
		perSimS("vmm.migrate_ops", st.Machine.MigrateOps),
		perSimS("vmm.context_switches", st.Machine.ContextSwitches),
		medianOf("vmm.host_ns_per_decision", "ns", hostNs),
	}
	decisions := 0.0
	for _, ws := range o.wins {
		for _, w := range ws {
			decisions += float64(w.ops)
		}
	}
	o.layers = append(o.layers, rt.layers(growth, decisions, "scheduling decisions")...)
	return o, nil
}
