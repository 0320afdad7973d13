package experiments

import (
	"fmt"
	"math/rand"

	"tableau/internal/faults"
	"tableau/internal/fleet"
	"tableau/internal/planner"
	"tableau/internal/verify"
)

// The failover experiment drives the fleet's failure domains end to
// end: a journaled 1000-host fleet absorbs seeded crash storms that
// kill ~5% of the hosts mid-churn — each victim's journal store armed
// with a crash plan that fires at a planned append boundary — and the
// arbiter's Failover sweep resolves every downed host, either
// recovering it from the surviving journal image (rejoining with a
// bumped epoch version) or declaring it dead and evacuating its guests
// LS-first through the normal placement protocol. The storms sweep the
// fail-stop share, so the recover-vs-evacuate mix runs from pure
// recovery to pure evacuation. After every storm the failure-seam
// oracle (verify.CheckFleet) replays all host ledgers across the
// crash/recover/evacuate seams — oracle_violations must be 0 — and the
// rows are byte-identical at any -parallel setting.

// failoverParams sizes one failover run.
type failoverParams struct {
	hosts, cores, slots int
	spares, placers     int
	maxAttempts         int
	vms                 int // fill-wave population
	storms              int // crash storms (fail-stop share swept per storm)
	victims             int // hosts armed per storm
	churnPct            int // % of live VMs churned while a storm is armed
	maxAppend           int // latest append boundary a crash can fire at
	seed                int64
}

func failoverQuickParams() failoverParams {
	return failoverParams{
		hosts: 1000, cores: 8, slots: 20,
		spares: 60, placers: 8, maxAttempts: 6,
		vms: 10_000, storms: 4, victims: 50,
		churnPct: 8, maxAppend: 3,
		seed: 42,
	}
}

// failoverShortParams is the CI-sized variant: same code paths (armed
// storms, mid-churn crashes, recover and evacuate seams, the swept
// fail-stop mix), two orders of magnitude fewer flushes.
func failoverShortParams() failoverParams {
	return failoverParams{
		hosts: 48, cores: 8, slots: 20,
		spares: 6, placers: 6, maxAttempts: 6,
		vms: 480, storms: 4, victims: 4,
		churnPct: 10, maxAppend: 2,
		seed: 42,
	}
}

// failStopSweep is the per-storm fail-stop percentage cycle: pure
// recovery, two mixed bands, pure evacuation.
var failStopSweep = []int{0, 35, 65, 100}

// Failover runs the fleet failure-domain experiment. Full mode runs
// the sweep twice, so the fleet degrades through eight storms.
func Failover(mode Mode) (*Result, error) {
	p := failoverQuickParams()
	if mode == Full {
		p.storms = 8
	}
	return runFailover(p)
}

func runFailover(p failoverParams) (*Result, error) {
	cache := planner.NewCache(8192)
	arb, err := fleet.New(fleet.Config{
		Hosts: p.hosts, Cores: p.cores, SlotsPerHost: p.slots,
		Placers: p.placers, MaxAttempts: p.maxAttempts, SpareHosts: p.spares,
		Cache: cache, ForEach: ForEach, Journal: true,
	})
	if err != nil {
		return nil, err
	}
	defer arb.Close()

	r := &Result{
		Name:  "failover",
		Title: fmt.Sprintf("Fleet failure domains: %d hosts x %d VMs, seeded crash storms mid-churn, recover-vs-evacuate sweep", p.hosts, p.vms),
		Header: []string{
			"storm", "fail_stop_pct", "armed", "hosts_down",
			"displaced", "recovered", "evacuated", "evac_sheds", "lost",
			"departs_deferred", "conflicts", "retries", "unplaced",
			"oracle_violations",
		},
		Note: "Each storm arms a seeded crash plan on ~5% of the hosts and churns the fleet until the crashes fire mid-commit; Failover then recovers every host whose journal image survived (rejoining past its pre-crash version) and evacuates the rest LS-first with spare promotion and best-effort sheds under pressure. displaced counts guests riding through the seam (recovered in place or evacuated); lost counts evacuees no host could take — truthfully accounted, never silently dropped. oracle_violations replays every host ledger across the crash/recover/evacuate seams through verify.CheckFleet and must be 0.",
	}

	prev := arb.Stats()
	row := func(storm string, failStopPct, armed int) {
		st := arb.Stats()
		viol := len(verify.CheckFleet(arb))
		r.Rows = append(r.Rows, []string{
			storm, itoa(int64(failStopPct)), itoa(int64(armed)),
			itoa(st.HostsDown - prev.HostsDown),
			itoa(st.Displaced - prev.Displaced),
			itoa(st.Recovered - prev.Recovered),
			itoa(st.Evacuated - prev.Evacuated),
			itoa(st.EvacSheds - prev.EvacSheds),
			itoa(st.Lost - prev.Lost),
			itoa(st.DepartsDeferred - prev.DepartsDeferred),
			itoa(st.Conflicts - prev.Conflicts),
			itoa(st.Retries - prev.Retries),
			itoa(st.Unplaced - prev.Unplaced),
			itoa(int64(viol)),
		})
		prev = st
	}

	rng := rand.New(rand.NewSource(p.seed))
	mkVMs := func(prefix string, n int) []fleet.VM {
		vms := make([]fleet.VM, n)
		for i := range vms {
			vms[i] = fleet.VM{
				Name:        fmt.Sprintf("%s%d", prefix, i),
				Util:        fleetUtil(rng),
				LatencyGoal: 20_000_000,
			}
		}
		// Class draw last, after every structural draw: ~35% best-effort,
		// so evacuations carry both wave classes and pressure sheds bite.
		for i := range vms {
			if rng.Intn(100) < 35 {
				vms[i].Class = planner.BE
			}
		}
		return vms
	}

	if _, err := arb.PlaceBatch(mkVMs("v", p.vms)); err != nil {
		return nil, err
	}
	row("fill", 0, 0)

	for k := 1; k <= p.storms; k++ {
		failStopPct := failStopSweep[(k-1)%len(failStopSweep)]
		plan, err := faults.GenerateHostCrashPlan(rng.Int63(), p.hosts, p.victims, failStopPct, p.maxAppend)
		if err != nil {
			return nil, err
		}
		armed, err := arb.ArmCrashes(plan)
		if err != nil {
			return nil, err
		}
		// Churn while the storm is armed: the crashes fire as commit
		// traffic reaches each victim's planned append boundary.
		live := arb.PlacedNames()
		n := len(live) * p.churnPct / 100
		perm := rng.Perm(len(live))
		departs := make([]string, n)
		for i := 0; i < n; i++ {
			departs[i] = live[perm[i]]
		}
		if _, err := arb.DepartBatch(departs); err != nil {
			return nil, err
		}
		if _, err := arb.PlaceBatch(mkVMs(fmt.Sprintf("c%d-", k), n)); err != nil {
			return nil, err
		}
		if _, err := arb.Failover(); err != nil {
			return nil, err
		}
		row(fmt.Sprintf("storm%d", k), failStopPct, armed)
	}
	return r, nil
}
