package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tableau/internal/core"
	"tableau/internal/faults"
	"tableau/internal/planner"
)

// Config sizes the fleet.
type Config struct {
	// Hosts is the number of simulated hosts; Cores the guest cores per
	// host; SlotsPerHost the VM slots per host (slot 0 is the resident
	// system VM). SlotsPerHost defaults to 2*Cores+4.
	Hosts, Cores, SlotsPerHost int
	// Placers is the number of logical placer partitions arrivals are
	// hashed across (default 8, clamped to Hosts). Each placer prefers
	// hosts of its home partition (host%Placers == placer), so same-host
	// contention is rare but real on the cross-partition fallback.
	Placers int
	// MaxAttempts bounds placement attempts per VM, conflicts and
	// rejects combined (default 4).
	MaxAttempts int
	// SpareHosts reserves that many hosts at the tail of the id space
	// as a spare pool: placers only consider them for VMs that have
	// already been rejected somewhere (the fleet-level shed-retry).
	// When a regular host dies, a spare is promoted to replace it.
	SpareHosts int
	// Cache, when set, is shared by every host's planner — the paper's
	// central table cache at fleet scale.
	Cache *planner.Cache
	// ForEach, when set, runs fn(i) for i in [0,n) with slot-indexed
	// determinism (experiments.ForEach); nil runs serially. The arbiter
	// only relies on per-cell isolation, never on execution order, so
	// any such runner keeps batch placement deterministic.
	ForEach func(n int, fn func(i int) error) error
	// Journal attaches a durable epoch journal (behind an armable crash
	// store) to every host, making each Controller.Flush a journaled
	// commit — the substrate of ArmCrashes/Failover. Off by default:
	// fault-free experiments keep their memory profile.
	Journal bool
}

func (c *Config) setDefaults() error {
	if c.Hosts <= 0 || c.Cores <= 0 {
		return fmt.Errorf("fleet: config needs Hosts and Cores >= 1, got %d/%d", c.Hosts, c.Cores)
	}
	if c.SlotsPerHost == 0 {
		c.SlotsPerHost = 2*c.Cores + 4
	}
	if c.Placers <= 0 {
		c.Placers = 8
	}
	if c.Placers > c.Hosts {
		c.Placers = c.Hosts
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.SpareHosts < 0 || c.SpareHosts >= c.Hosts {
		return fmt.Errorf("fleet: SpareHosts %d out of range for %d hosts", c.SpareHosts, c.Hosts)
	}
	return nil
}

// Arbiter is the fleet's shared-state placement layer: N hosts, a
// registry of which host holds which VM, and the optimistic
// snapshot/commit/retry protocol placers run against the hosts.
type Arbiter struct {
	cfg    Config
	hosts  []*Host
	seqCtr atomic.Uint64
	// board holds every host's published snapshot, one entry per host
	// in id order; placers read it without taking any host lock.
	board []headroom
	// views recycles Place's per-attempt []hostView copies of the board.
	views sync.Pool

	mu       sync.Mutex
	closed   bool
	vmHost   map[string]int
	order    []string // live VM names, deterministic under deterministic traffic
	orderPos map[string]int
	stats    Stats

	// UnsafeDoublePlace is a mutation-smoke defect switch: each
	// PlaceBatch also commits its first placed VM to a second host
	// behind the registry's back. The cross-host continuity oracle must
	// catch the VM live on two hosts. Never set outside tests.
	UnsafeDoublePlace bool
	// UnsafeEvacuateBEFirst is a mutation-smoke defect switch: Failover
	// evacuates the best-effort wave before the latency-sensitive one,
	// inverting the LS-first displacement guarantee. The cross-seam
	// oracle must convict it. Never set outside tests.
	UnsafeEvacuateBEFirst bool
}

// New builds the fleet: Hosts hosts, each planned and wrapped in its
// own Controller (fanned out through Config.ForEach — with a shared
// cache the first host's initial plan serves all of them).
func New(cfg Config) (*Arbiter, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	a := &Arbiter{
		cfg:      cfg,
		hosts:    make([]*Host, cfg.Hosts),
		board:    make([]headroom, cfg.Hosts),
		views:    sync.Pool{New: func() any { return new([]hostView) }},
		vmHost:   make(map[string]int),
		orderPos: make(map[string]int),
	}
	err := a.forEach(cfg.Hosts, func(i int) error {
		h, err := newHost(i, cfg.Cores, cfg.SlotsPerHost, cfg.Cache, a.nextSeq,
			&a.board[i], i >= cfg.Hosts-cfg.SpareHosts, cfg.Journal)
		if err != nil {
			return err
		}
		a.hosts[i] = h
		return nil
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Arbiter) nextSeq() uint64 { return a.seqCtr.Add(1) }

func (a *Arbiter) forEach(n int, fn func(i int) error) error {
	if a.cfg.ForEach != nil {
		return a.cfg.ForEach(n, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func (a *Arbiter) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Hosts returns the fleet's hosts in id order.
func (a *Arbiter) Hosts() []*Host { return append([]*Host(nil), a.hosts...) }

// Stats returns the cumulative placement counters.
func (a *Arbiter) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Assignments returns a copy of the live VM -> host registry.
func (a *Arbiter) Assignments() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.vmHost))
	for k, v := range a.vmHost {
		out[k] = v
	}
	return out
}

// PlacedNames returns the live VM names in a deterministic order (the
// registry's insertion order with swap-removals — stable across runs
// for the same deterministic op sequence).
func (a *Arbiter) PlacedNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.order...)
}

// ControllerTotals sums the hosts' controller counters.
func (a *Arbiter) ControllerTotals() core.Stats {
	var t core.Stats
	for _, h := range a.hosts {
		s := h.ControllerStats()
		t.Flushes += s.Flushes
		t.Transitions += s.Transitions
		t.OpsCoalesced += s.OpsCoalesced
		t.Rejections += s.Rejections
		t.Rollbacks += s.Rollbacks
		t.PlannerCalls += s.PlannerCalls
	}
	return t
}

// Close shuts every host down. Idempotent, and safe against concurrent
// Place/Depart/PlaceBatch: in-flight commits serialize against each
// host's lock, and operations arriving after the close observe
// ErrClosed (or a per-VM controller-closed reject they retry into
// Unplaced).
func (a *Arbiter) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	var first error
	for _, h := range a.hosts {
		if err := h.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ArmCrashes arms a seeded crash storm: each victim host's journal
// store gets its crash plan. Hosts that are not Up (killed by an
// earlier storm and not yet recovered) are skipped; the count of hosts
// actually armed is returned.
func (a *Arbiter) ArmCrashes(plan faults.HostCrashPlan) (int, error) {
	if err := plan.Validate(len(a.hosts)); err != nil {
		return 0, err
	}
	armed := 0
	for _, c := range plan.Crashes {
		err := a.hosts[c.Host].Arm(c.Plan)
		switch {
		case err == nil:
			armed++
		case errors.Is(err, ErrHostDown) || errors.Is(err, faults.ErrCrashed):
			// Already down or dead: the storm passes it by.
		default:
			return armed, err
		}
	}
	return armed, nil
}

// hostView is a placer's private, virtually-decremented copy of the
// advisory headroom, with the version a commit against the host names.
type hostView struct {
	version   uint64
	freeSlots int
	freePPM   int64
	up        bool
	spare     bool
}

// loadViews refills dst with one view per host, read from the headroom
// board. Views are filled field by field from the entries' raw words:
// building a Snapshot or a composite literal per host measured several
// times slower than the loads themselves.
func (a *Arbiter) loadViews(dst []hostView) []hostView {
	if cap(dst) < len(a.board) {
		dst = make([]hostView, len(a.board))
	}
	dst = dst[:len(a.board)]
	for i := range a.board {
		version, freePPM, packed := a.board[i].words()
		slots, state, spare := unpack(packed)
		v := &dst[i]
		v.version, v.freePPM, v.freeSlots = version, freePPM, slots
		v.up, v.spare = state == HostUp, spare
	}
	return dst
}

// pend is one VM still looking for a host.
type pend struct {
	vm       VM
	attempts int
	spareOK  bool // rejected somewhere: eligible for the spare pool
	banned   map[int]bool
	host     int // placed host (-1 until placed)
}

func newPend(vm VM) *pend { return &pend{vm: vm, host: -1} }

func (p *pend) ban(host int) {
	if p.banned == nil {
		p.banned = make(map[int]bool)
	}
	p.banned[host] = true
	p.spareOK = true
}

// pickHost chooses a target host from the placer's view, worst-fit
// (most free reserved headroom, ties to the lowest id) so load spreads:
//  1. home-partition regular hosts the headroom says fit,
//  2. any regular host that fits (the cross-partition fallback — where
//     placers meet and conflicts happen),
//  3. the spare pool, for VMs already rejected somewhere,
//  4. the pressure valve: the emptiest unbanned host even though the
//     advisory headroom says it won't fit — the host's admission check
//     is the authoritative gate, and near-full fleets must probe it
//     rather than give up on an estimate.
//
// Only Up hosts are eligible; down and dead hosts take no traffic.
// Returns -1 when no unbanned host has a free slot.
func (a *Arbiter) pickHost(views []hostView, pd *pend, placer int) int {
	need := pd.vm.ppm()
	pick := func(spare, homeOnly, mustFit bool) int {
		best, bestFree := -1, int64(-1)
		for h := range views {
			v := &views[h]
			if !v.up || v.spare != spare || v.freeSlots <= 0 || pd.banned[h] {
				continue
			}
			if homeOnly && h%a.cfg.Placers != placer {
				continue
			}
			if mustFit && v.freePPM < need {
				continue
			}
			if v.freePPM > bestFree {
				best, bestFree = h, v.freePPM
			}
		}
		return best
	}
	if h := pick(false, true, true); h >= 0 {
		return h
	}
	if h := pick(false, false, true); h >= 0 {
		return h
	}
	if pd.spareOK {
		if h := pick(true, false, true); h >= 0 {
			return h
		}
	}
	if h := pick(false, false, false); h >= 0 {
		return h
	}
	if pd.spareOK {
		if h := pick(true, false, false); h >= 0 {
			return h
		}
	}
	return -1
}

// placeWork drives pends through the optimistic placement protocol
// until each is placed, unplaced, or out of attempts. Each round
// freezes one read of the headroom board that every placer decides
// from and every commit names the version of. It returns the
// batch's counters without folding them into the cumulative stats —
// that is the caller's job (PlaceBatch adds them directly; Failover
// merges them with the failover accounting first). Placed pends carry
// their host in pd.host.
func (a *Arbiter) placeWork(work []*pend) (Stats, error) {
	var bs Stats
	var base []hostView
	for len(work) > 0 {
		base = a.loadViews(base)

		parts := make([][]*pend, a.cfg.Placers)
		for _, pd := range work {
			p := partition(pd.vm.Name, a.cfg.Placers)
			parts[p] = append(parts[p], pd)
		}
		type decision struct {
			pd   *pend
			host int
		}
		decisions := make([][]decision, a.cfg.Placers)
		_ = a.forEach(a.cfg.Placers, func(p int) error {
			view := append([]hostView(nil), base...)
			for _, pd := range parts[p] {
				h := a.pickHost(view, pd, p)
				decisions[p] = append(decisions[p], decision{pd, h})
				if h >= 0 {
					view[h].freeSlots--
					view[h].freePPM -= pd.vm.ppm()
				}
			}
			return nil
		})

		// Group decisions into per-(host, placer) commit batches. The
		// outer placer loop ascends, so each host's batch list is
		// placer-ordered — the deterministic stand-in for arrival order.
		type hostBatch struct {
			pends    []*pend
			result   CommitResult
			conflict bool
			down     bool
			err      error
		}
		byHost := make([][]*hostBatch, len(a.hosts))
		var touched []int
		var noHost []*pend
		for p := 0; p < a.cfg.Placers; p++ {
			batchOf := make(map[int]*hostBatch)
			for _, d := range decisions[p] {
				if d.host < 0 {
					noHost = append(noHost, d.pd)
					continue
				}
				b := batchOf[d.host]
				if b == nil {
					b = &hostBatch{}
					batchOf[d.host] = b
					if len(byHost[d.host]) == 0 {
						touched = append(touched, d.host)
					}
					byHost[d.host] = append(byHost[d.host], b)
				}
				b.pends = append(b.pends, d.pd)
			}
		}

		_ = a.forEach(len(touched), func(i int) error {
			h := touched[i]
			for _, b := range byHost[h] {
				batch := make([]VM, len(b.pends))
				for j, pd := range b.pends {
					batch[j] = pd.vm
				}
				res, err := a.hosts[h].CommitPlacements(base[h].version, batch)
				switch {
				case errors.Is(err, ErrConflict):
					b.conflict = true
				case errors.Is(err, ErrHostDown):
					b.down = true
				case err != nil:
					b.err = err
				default:
					b.result = res
				}
			}
			return nil
		})

		// Aggregate in deterministic order: hosts ascending, batches
		// placer-ordered, pends in decision order.
		var next []*pend
		retry := func(pd *pend) {
			pd.attempts++
			if pd.attempts < a.cfg.MaxAttempts {
				bs.Retries++
				next = append(next, pd)
			} else {
				bs.Unplaced++
			}
		}
		a.mu.Lock()
		for h := range byHost {
			for _, b := range byHost[h] {
				if b.err != nil {
					a.mu.Unlock()
					return bs, b.err
				}
				if b.conflict || b.down {
					// A down host resolves in-flight commits exactly like a
					// conflict: nothing placed (even a journal-durable ghost
					// is deactivated before the host rejoins), so the placer
					// refreshes and retries elsewhere.
					for _, pd := range b.pends {
						bs.Conflicts++
						if b.down {
							pd.ban(h)
						}
						retry(pd)
					}
					continue
				}
				placed := make(map[string]bool, len(b.result.Placed))
				for _, name := range b.result.Placed {
					placed[name] = true
				}
				rejects := make(map[string]Reject, len(b.result.Rejects))
				for _, rj := range b.result.Rejects {
					rejects[rj.VM.Name] = rj
				}
				for _, pd := range b.pends {
					if placed[pd.vm.Name] {
						bs.Placed++
						if base[h].spare {
							bs.SparePlacements++
						}
						pd.host = h
						a.recordPlacedLocked(pd.vm.Name, h)
						continue
					}
					if rejects[pd.vm.Name].NoSlot {
						bs.SlotRejects++
					} else {
						bs.AdmissionRejects++
					}
					pd.ban(h)
					retry(pd)
				}
				// Best-effort guests the host shed to admit this batch are
				// gone from the host; drop them from the registry. Runs
				// after the pend loop so a VM placed and shed in the same
				// commit is recorded and then removed.
				for _, name := range b.result.Shed {
					a.removePlacedLocked(name)
					bs.Shed++
				}
			}
		}
		a.mu.Unlock()
		// VMs no unbanned host could even hold a slot for are terminal.
		bs.Unplaced += int64(len(noHost))
		work = next
	}
	return bs, nil
}

// PlaceBatch places a batch of VMs through the optimistic protocol,
// deterministically at any parallelism. Each round freezes one
// snapshot of every host, partitions the still-unplaced VMs across the
// placers (fanned out via Config.ForEach), and lets every placer pick
// targets against its own virtually-decremented view; then the chosen
// placements commit per host, placer-ordered. The first committer on a
// host wins; later placers' batches named the round-start version, so
// they lose with ErrConflict and retry next round against a fresh
// snapshot — the same protocol concurrent placers run, with the race
// made reproducible. Rejected VMs ban the host, gain spare-pool
// eligibility, and retry; MaxAttempts bounds every retry path.
func (a *Arbiter) PlaceBatch(vms []VM) (Stats, error) {
	if a.isClosed() {
		return Stats{}, ErrClosed
	}
	work := make([]*pend, len(vms))
	for i, vm := range vms {
		work[i] = newPend(vm)
	}
	bs, err := a.placeWork(work)
	if err != nil {
		return bs, err
	}
	a.mu.Lock()
	a.stats.add(bs)
	a.mu.Unlock()
	if a.UnsafeDoublePlace {
		for _, pd := range work {
			if pd.host >= 0 {
				a.doublePlace(pd.vm, pd.host)
				break
			}
		}
	}
	return bs, nil
}

// doublePlace implements the UnsafeDoublePlace defect: commit vm to a
// second host without telling the registry.
func (a *Arbiter) doublePlace(vm VM, not int) {
	for h := range a.hosts {
		if h == not {
			continue
		}
		snap := a.hosts[h].Snapshot()
		if snap.State != HostUp || snap.FreeSlots == 0 {
			continue
		}
		if res, err := a.hosts[h].CommitPlacements(snap.Version, []VM{vm}); err == nil && len(res.Placed) == 1 {
			return
		}
	}
}

// DepartBatch tears the named VMs down on their owning hosts,
// deterministically at any parallelism: departures group by owner and
// each host's group commits with a refresh-on-conflict loop (conflicts
// cannot occur from DepartBatch itself — one committer per host — but
// the loop keeps the protocol uniform). Every name must be live.
// Departures whose owning host is down are deferred: the VMs stay
// registered (removing them without a host commit would fork the
// ledger from the registry) until Failover resolves the host.
func (a *Arbiter) DepartBatch(names []string) (Stats, error) {
	if a.isClosed() {
		return Stats{}, ErrClosed
	}
	var bs Stats
	a.mu.Lock()
	byHost := make(map[int][]string)
	var touched []int
	for _, name := range names {
		h, ok := a.vmHost[name]
		if !ok {
			a.mu.Unlock()
			return bs, fmt.Errorf("fleet: departure of unknown VM %q", name)
		}
		if len(byHost[h]) == 0 {
			touched = append(touched, h)
		}
		byHost[h] = append(byHost[h], name)
	}
	a.mu.Unlock()

	conflicts := make([]int64, len(touched))
	deferred := make([]bool, len(touched))
	err := a.forEach(len(touched), func(i int) error {
		h := touched[i]
		for attempt := 0; ; attempt++ {
			snap := a.hosts[h].Snapshot()
			if snap.State != HostUp {
				deferred[i] = true
				return nil
			}
			_, err := a.hosts[h].CommitDepartures(snap.Version, byHost[h])
			if errors.Is(err, ErrConflict) && attempt < 8 {
				conflicts[i]++
				continue
			}
			if errors.Is(err, ErrHostDown) {
				deferred[i] = true
				return nil
			}
			return err
		}
	})
	if err != nil {
		return bs, err
	}
	a.mu.Lock()
	for i, h := range touched {
		bs.Conflicts += conflicts[i]
		bs.Retries += conflicts[i]
		if deferred[i] {
			bs.DepartsDeferred += int64(len(byHost[h]))
			continue
		}
		for _, name := range byHost[h] {
			a.removePlacedLocked(name)
			bs.Departed++
		}
	}
	a.stats.add(bs)
	a.mu.Unlock()
	return bs, nil
}

// Failover sweeps the fleet for down hosts and resolves each one:
// recover — replay the surviving journal image via core.Recover,
// reconcile the crash seam (ghost deactivations, journal-committed
// departures), and rejoin with a bumped version — or, when no image
// survived (fail-stop) or the replay failed, declare the host dead and
// evacuate. Evacuation re-places the displaced guests through the
// normal protocol in LS-first waves (every latency-sensitive evacuee
// is offered a slot before any best-effort one), with immediate
// spare-pool eligibility, spare promotion to backfill dead regular
// hosts, and best-effort sheds allowed under pressure; evacuees no
// host can take are recorded as Lost on the dead host's evacuation
// seam — every displaced VM ends live on exactly one host, explicitly
// shed, or explicitly lost. The sweep loops until no host is down, so
// hosts crashed by the evacuation traffic itself are resolved too.
func (a *Arbiter) Failover() (Stats, error) {
	if a.isClosed() {
		return Stats{}, ErrClosed
	}
	var bs Stats
	for {
		var downs []Snapshot
		for i := range a.board {
			if s := a.board[i].load(i); s.State == HostDown {
				downs = append(downs, s)
			}
		}
		if len(downs) == 0 {
			break
		}
		type evacuation struct {
			host   *Host
			seq    uint64
			ls, be []*pend
		}
		var evacs []*evacuation
		for _, down := range downs {
			h := a.hosts[down.Host]
			bs.HostsDown++
			guests := h.LiveGuests()
			bs.Displaced += int64(len(guests))
			if freed, err := h.Recover(); err == nil {
				bs.Recovered++
				a.mu.Lock()
				for _, name := range freed {
					// The journal proves the departure committed before the
					// crash; the crash just swallowed the ack.
					a.removePlacedLocked(name)
					bs.Departed++
				}
				a.mu.Unlock()
				continue
			}
			// No surviving image, or the replay failed: dead. A regular
			// host's death promotes the lowest-id healthy spare. Whether
			// it was a spare comes from the same board entry that showed
			// it down: a failed recovery changes neither.
			if err := h.markDead(); err != nil {
				return bs, err
			}
			if !down.Spare {
				a.promoteSpare()
			}
			ev := &evacuation{host: h, seq: a.nextSeq()}
			a.mu.Lock()
			for _, vm := range guests {
				a.removePlacedLocked(vm.Name)
				pd := newPend(vm)
				pd.spareOK = true
				if vm.Class == planner.BE {
					ev.be = append(ev.be, pd)
				} else {
					ev.ls = append(ev.ls, pd)
				}
			}
			a.mu.Unlock()
			evacs = append(evacs, ev)
		}

		// Two strict waves across all of this pass's dead hosts: every
		// LS evacuee is placed (or exhausted) before any BE evacuee is
		// offered a slot, so the displacement order is part of the
		// fleet's guarantee, not an accident of traversal.
		var first, second []*pend
		for _, ev := range evacs {
			first = append(first, ev.ls...)
			second = append(second, ev.be...)
		}
		if a.UnsafeEvacuateBEFirst {
			first, second = second, first
		}
		for _, wave := range [][]*pend{first, second} {
			if len(wave) == 0 {
				continue
			}
			ws, err := a.placeWork(wave)
			if err != nil {
				return bs, err
			}
			bs.add(ws)
			bs.Evacuated += ws.Placed
			bs.EvacSheds += ws.Shed
		}
		for _, ev := range evacs {
			var evacLS, evacBE, lost []string
			for _, pd := range ev.ls {
				evacLS = append(evacLS, pd.vm.Name)
				if pd.host < 0 {
					lost = append(lost, pd.vm.Name)
				}
			}
			for _, pd := range ev.be {
				evacBE = append(evacBE, pd.vm.Name)
				if pd.host < 0 {
					lost = append(lost, pd.vm.Name)
				}
			}
			bs.Lost += int64(len(lost))
			ev.host.finishEvacuate(ev.seq, evacLS, evacBE, lost)
		}
	}
	a.mu.Lock()
	a.stats.add(bs)
	a.mu.Unlock()
	return bs, nil
}

// promoteSpare moves the lowest-id healthy spare into the regular
// pool, replacing a dead regular host. Spare and state come from one
// board entry, so both describe the same moment.
func (a *Arbiter) promoteSpare() {
	for i := range a.board {
		if s := a.board[i].load(i); s.Spare && s.State == HostUp {
			a.hosts[i].promote()
			return
		}
	}
}

// Place runs one VM through the live optimistic protocol: copy the
// headroom board, pick, commit, and on conflict or reject refresh and
// retry, up to MaxAttempts. Unlike PlaceBatch this races genuinely
// against other goroutines — it is the arbiter's concurrent API (and
// what the -race stress tests hammer). Returns the placed host.
func (a *Arbiter) Place(vm VM) (int, error) {
	if a.isClosed() {
		return -1, ErrClosed
	}
	pd := newPend(vm)
	p := partition(vm.Name, a.cfg.Placers)
	views := a.views.Get().(*[]hostView)
	var bs Stats
	defer func() {
		a.views.Put(views)
		a.mu.Lock()
		a.stats.add(bs)
		a.mu.Unlock()
	}()
	for pd.attempts < a.cfg.MaxAttempts {
		*views = a.loadViews(*views)
		h := a.pickHost(*views, pd, p)
		if h < 0 {
			break
		}
		target := (*views)[h]
		res, err := a.hosts[h].CommitPlacements(target.version, []VM{vm})
		if errors.Is(err, ErrConflict) || errors.Is(err, ErrHostDown) {
			bs.Conflicts++
			if errors.Is(err, ErrHostDown) {
				pd.ban(h)
			}
			pd.attempts++
			if pd.attempts < a.cfg.MaxAttempts {
				bs.Retries++
			}
			continue
		}
		if err != nil {
			return -1, err
		}
		if len(res.Placed) == 1 {
			bs.Placed++
			if target.spare {
				bs.SparePlacements++
			}
			a.mu.Lock()
			a.recordPlacedLocked(vm.Name, h)
			for _, name := range res.Shed {
				a.removePlacedLocked(name)
				bs.Shed++
			}
			a.mu.Unlock()
			return h, nil
		}
		if res.Rejects[0].NoSlot {
			bs.SlotRejects++
		} else {
			bs.AdmissionRejects++
		}
		pd.ban(h)
		pd.attempts++
		if pd.attempts < a.cfg.MaxAttempts {
			bs.Retries++
		}
	}
	bs.Unplaced++
	return -1, ErrUnplaced
}

// Depart tears one VM down through the live protocol, retrying commits
// that lose to concurrent placements on the same host. A departure
// whose owning host is down is deferred (counted, ErrHostDown): the VM
// stays registered until Failover resolves the host.
func (a *Arbiter) Depart(name string) error {
	if a.isClosed() {
		return ErrClosed
	}
	a.mu.Lock()
	h, ok := a.vmHost[name]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: departure of unknown VM %q", name)
	}
	for attempt := 0; ; attempt++ {
		snap := a.hosts[h].Snapshot()
		if snap.State != HostUp {
			a.mu.Lock()
			a.stats.DepartsDeferred++
			a.mu.Unlock()
			return ErrHostDown
		}
		_, err := a.hosts[h].CommitDepartures(snap.Version, []string{name})
		if errors.Is(err, ErrConflict) {
			if attempt >= 64 {
				return fmt.Errorf("fleet: departure of %q starved by conflicts", name)
			}
			a.mu.Lock()
			a.stats.Conflicts++
			a.stats.Retries++
			a.mu.Unlock()
			continue
		}
		if errors.Is(err, ErrHostDown) {
			a.mu.Lock()
			a.stats.DepartsDeferred++
			a.mu.Unlock()
			return ErrHostDown
		}
		if err != nil {
			return err
		}
		break
	}
	a.mu.Lock()
	a.removePlacedLocked(name)
	a.stats.Departed++
	a.mu.Unlock()
	return nil
}

func (a *Arbiter) recordPlacedLocked(name string, host int) {
	a.vmHost[name] = host
	a.orderPos[name] = len(a.order)
	a.order = append(a.order, name)
}

func (a *Arbiter) removePlacedLocked(name string) {
	delete(a.vmHost, name)
	pos, ok := a.orderPos[name]
	if !ok {
		return
	}
	last := len(a.order) - 1
	moved := a.order[last]
	a.order[pos] = moved
	a.orderPos[moved] = pos
	a.order = a.order[:last]
	delete(a.orderPos, name)
}
