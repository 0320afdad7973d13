package verify

import (
	"bytes"
	"fmt"
	"sort"

	"tableau/internal/core"
	"tableau/internal/fleet"
	"tableau/internal/journal"
)

// ClassFleet marks cross-host continuity findings: every admitted VM
// is live on exactly one host at every epoch seam — including the
// failure seams — and each host's epoch history tracks its committed
// placement ledger exactly.
const ClassFleet = "fleet"

// CheckFleet is the fleet arbitration oracle, extended across the
// failure seam. Per host it replays the committed-op ledger against
// the controller's epoch history, treating crash/recover/evacuate
// ledger entries as first-class seam events:
//
//   - versions increase strictly within every segment, and a rejoin
//     version strictly exceeds everything the journal ever carried, so
//     no pre-crash snapshot can silently double-apply;
//   - at a crash seam the frozen journal image must fold to exactly
//     the acked commit stream, plus at most one durable-but-unacked
//     record — whose slot is the recover seam's reconciled ghost;
//   - a recovered host's epoch history must be bit-identical to the
//     independent replay of the crash seam's image (the journal is the
//     ground truth, not the recovering code);
//   - ghost and freed slots claimed by the recover seam must equal the
//     journal-vs-memory delta the oracle computes itself.
//
// Across hosts it merges all ledgers by the arbiter's global commit
// sequence and replays placements, departures, sheds and seams: a VM
// placed while live anywhere (the no-double-placement guarantee — a
// reconciled ghost must never also count as placed), a recover seam
// whose survivors differ from the replayed occupancy, an evacuation
// that misses or invents a displaced VM, a lost VM that resurrects, or
// a best-effort evacuee re-placed before the last latency-sensitive
// one of its seam are all violations; at the end the replayed owner
// map must equal the arbiter's registry in both directions, and every
// evacuee must be re-placed, shed, or explicitly lost.
func CheckFleet(a *fleet.Arbiter) []Violation {
	return checkFleet(hostRecords(a), a.Assignments())
}

// hostRecord is what the fleet oracle reads of one host: its commit
// ledger and its controller's epoch history.
type hostRecord struct {
	id     int
	ledger []fleet.Commit
	hist   []core.Epoch
}

// hostRecords copies every host's ledger and history out of a.
func hostRecords(a *fleet.Arbiter) []hostRecord {
	hosts := a.Hosts()
	recs := make([]hostRecord, len(hosts))
	for i, h := range hosts {
		recs[i] = hostRecord{id: h.ID(), ledger: h.Ledger(), hist: h.History()}
	}
	return recs
}

// checkFleet is CheckFleet over copied host records and the registry
// (VM name to host id).
func checkFleet(hosts []hostRecord, registry map[string]int) []Violation {
	var out []Violation
	v := func(format string, args ...any) {
		out = append(out, Violation{Class: ClassFleet, VCPU: -1, Detail: fmt.Sprintf(format, args...)})
	}

	type seqCommit struct {
		host int
		c    fleet.Commit
	}
	var all []seqCommit
	seqOwner := make(map[uint64]int)
	for _, h := range hosts {
		checkHostContinuity(h.id, h.ledger, h.hist, v)
		for _, c := range h.ledger {
			if prev, dup := seqOwner[c.Seq]; dup {
				v("commit seq %d issued to both host %d and host %d", c.Seq, prev, h.id)
			}
			seqOwner[c.Seq] = h.id
			all = append(all, seqCommit{h.id, c})
		}
	}

	sort.Slice(all, func(i, j int) bool { return all[i].c.Seq < all[j].c.Seq })
	owner := make(map[string]int)
	lost := make(map[string]bool)
	pendingEvac := make(map[string]bool)
	// Per evacuation seam, the re-placement Seq extremes of its LS and
	// BE evacuees: LS-first demands every LS re-placement precede every
	// BE one of the same seam.
	type evacWatch struct {
		host         int
		seq          uint64
		ls, be       map[string]bool
		maxLS, minBE uint64
	}
	var watches []*evacWatch
	ownedBy := func(host int) map[string]bool {
		set := make(map[string]bool)
		for name, h := range owner {
			if h == host {
				set[name] = true
			}
		}
		return set
	}
	for _, sc := range all {
		c := sc.c
		switch c.Event {
		case "crash":
			// The seam freezes the image; occupancy is unchanged (the
			// crashing batch rolled back).
		case "recover":
			// Journal-committed departures the crash swallowed: each must
			// have been live here.
			for _, name := range c.Departed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q resolved as departed by host %d's recovery while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q resolved as departed by host %d's recovery but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
				}
			}
			// The survivors must be exactly the replayed occupancy: nothing
			// vanishes or appears across a recovery.
			held := ownedBy(sc.host)
			for _, name := range c.Recovered {
				if !held[name] {
					v("host %d recovery claims survivor %q the replay does not place there (seq %d)", sc.host, name, c.Seq)
				}
				delete(held, name)
			}
			for name := range held {
				v("VM %q live on host %d by the replay but missing from its recovery survivors (seq %d)", name, sc.host, c.Seq)
			}
		case "evacuate":
			evacuees := make(map[string]bool, len(c.EvacLS)+len(c.EvacBE))
			w := &evacWatch{host: sc.host, seq: c.Seq, ls: make(map[string]bool), be: make(map[string]bool), minBE: ^uint64(0)}
			for _, name := range c.EvacLS {
				evacuees[name] = true
				w.ls[name] = true
			}
			for _, name := range c.EvacBE {
				evacuees[name] = true
				w.be[name] = true
			}
			held := ownedBy(sc.host)
			for name := range evacuees {
				if !held[name] {
					v("host %d evacuation lists %q which the replay does not place there (seq %d)", sc.host, name, c.Seq)
				}
				delete(owner, name)
				pendingEvac[name] = true
			}
			for name := range held {
				if !evacuees[name] {
					v("VM %q live on dead host %d but missing from its evacuation (seq %d)", name, sc.host, c.Seq)
				}
			}
			for _, name := range c.Lost {
				if !evacuees[name] {
					v("host %d evacuation loses %q it never displaced (seq %d)", sc.host, name, c.Seq)
				}
				lost[name] = true
				delete(pendingEvac, name)
			}
			watches = append(watches, w)
		default:
			for _, name := range c.Placed {
				if oh, live := owner[name]; live {
					v("VM %q placed on host %d while live on host %d (seq %d)", name, sc.host, oh, c.Seq)
				}
				if lost[name] {
					v("VM %q placed on host %d after being recorded lost (seq %d)", name, sc.host, c.Seq)
				}
				owner[name] = sc.host
				delete(pendingEvac, name)
				// Only the first re-placement counts toward a seam's wave
				// order: a later crash may displace the evacuee again under a
				// different seam's waves.
				for _, w := range watches {
					if c.Seq <= w.seq {
						continue
					}
					if w.ls[name] {
						delete(w.ls, name)
						if c.Seq > w.maxLS {
							w.maxLS = c.Seq
						}
					}
					if w.be[name] {
						delete(w.be, name)
						if c.Seq < w.minBE {
							w.minBE = c.Seq
						}
					}
				}
			}
			for _, name := range c.Departed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q departed host %d while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q departed host %d but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
				}
			}
			// A shed is a host-initiated departure: the victim must have been
			// live on exactly the shedding host, and is gone afterwards.
			for _, name := range c.Shed {
				oh, live := owner[name]
				switch {
				case !live:
					v("VM %q shed from host %d while not live anywhere (seq %d)", name, sc.host, c.Seq)
				case oh != sc.host:
					v("VM %q shed from host %d but lives on host %d (seq %d)", name, sc.host, oh, c.Seq)
				default:
					delete(owner, name)
					// An evacuee shed elsewhere to make room is resolved: it is
					// accounted as shed, not silently dropped.
					delete(pendingEvac, name)
				}
			}
		}
	}
	for _, w := range watches {
		if w.maxLS != 0 && w.minBE != ^uint64(0) && w.minBE < w.maxLS {
			v("host %d evacuation re-placed a best-effort evacuee (seq %d) before its last latency-sensitive one (seq %d)", w.host, w.minBE, w.maxLS)
		}
	}
	for name := range pendingEvac {
		v("evacuee %q neither re-placed, shed, nor recorded lost", name)
	}

	for name, h := range registry {
		oh, live := owner[name]
		switch {
		case !live:
			v("registry holds VM %q on host %d but the ledgers say it is not live", name, h)
		case oh != h:
			v("registry holds VM %q on host %d but the ledgers say host %d", name, h, oh)
		}
	}
	for name, h := range owner {
		if _, ok := registry[name]; !ok {
			v("VM %q live on host %d by the ledgers but absent from the registry", name, h)
		}
	}
	return out
}

// expectEpoch is one epoch the history must hold: its version, the
// slots that must hold guarantees, and — for epochs adopted from a
// crash seam's journal image — the exact table bytes.
type expectEpoch struct {
	version uint64
	active  map[int]bool
	bytes   []byte // non-nil: journal-replay prefix, compare bit-for-bit
}

// checkHostContinuity replays one host's ledger against its epoch
// history, segment by segment across failure seams. Slot 0 is the
// resident system VM, active from epoch 1 on.
func checkHostContinuity(host int, ledger []fleet.Commit, hist []core.Epoch, v func(string, ...any)) {
	if len(hist) == 0 {
		v("host %d has no epoch history", host)
		return
	}

	active := map[int]bool{0: true}
	cloneActive := func() map[int]bool {
		m := make(map[int]bool, len(active))
		for s := range active {
			m[s] = true
		}
		return m
	}
	expect := []expectEpoch{{version: hist[0].Version, active: cloneActive()}}
	last := func() uint64 { return expect[len(expect)-1].version }

	applyOps := func(c fleet.Commit) {
		for _, op := range c.Ops {
			switch op.Kind {
			case core.OpActivate:
				if active[op.Slot] {
					v("host %d commit seq %d activates slot %d twice", host, c.Seq, op.Slot)
				}
				active[op.Slot] = true
			case core.OpDeactivate:
				if !active[op.Slot] {
					v("host %d commit seq %d deactivates inactive slot %d", host, c.Seq, op.Slot)
				}
				delete(active, op.Slot)
			}
		}
	}

	down, dead := false, false
	var pendingFolded []journal.EpochRecord // folded crash image, nil for fail-stop
	var pendingMax uint64                   // max version across the raw image records
	for _, c := range ledger {
		switch c.Event {
		case "crash":
			if down || dead {
				v("host %d crash seam (seq %d) while already down or dead", host, c.Seq)
				return
			}
			down = true
			if c.Version != last() {
				v("host %d crash seam froze version %d but the replayed version is %d", host, c.Version, last())
			}
			pendingFolded, pendingMax = nil, 0
			if c.Image == nil {
				continue
			}
			rep, err := journal.DecodeAll(c.Image)
			if err != nil || len(rep.Records) == 0 {
				v("host %d crash seam image does not decode: %v", host, err)
				continue
			}
			for _, rec := range rep.Records {
				if rec.Version > pendingMax {
					pendingMax = rec.Version
				}
			}
			pendingFolded = journal.FoldEpochs(rep.Records)
			// The image must fold to the acked commit stream, plus at most
			// one durable-but-unacked record.
			n, m := len(pendingFolded), len(expect)
			if n != m && n != m+1 {
				v("host %d crash image folds to %d epochs, want the %d acked (+1 unacked at most)", host, n, m)
				pendingFolded = nil
				continue
			}
			for i := 0; i < m && i < n; i++ {
				if pendingFolded[i].Version != expect[i].version {
					v("host %d crash image epoch %d has version %d, acked stream says %d", host, i, pendingFolded[i].Version, expect[i].version)
				}
			}
			if n == m+1 && pendingFolded[n-1].Version <= last() {
				v("host %d crash image's unacked record has version %d, not past the acked %d", host, pendingFolded[n-1].Version, last())
			}
		case "recover":
			if !down || dead {
				v("host %d recover seam (seq %d) without a preceding crash", host, c.Seq)
				return
			}
			down = false
			if pendingFolded == nil {
				v("host %d recovered from a crash that left no decodable image (seq %d)", host, c.Seq)
				return
			}
			if c.Version <= pendingMax || c.Version <= last() {
				v("host %d rejoin version %d does not exceed the journal's %d / acked %d", host, c.Version, pendingMax, last())
			}
			// The seam's claimed ghost/freed slots must equal the
			// journal-vs-memory delta computed independently here.
			jrec := pendingFolded[len(pendingFolded)-1]
			jact := map[int]bool{}
			for s := 1; s < len(jrec.Slots); s++ {
				if jrec.Slots[s].Active {
					jact[s] = true
				}
			}
			var ghosts, freed []int
			for s := range jact {
				if !active[s] {
					ghosts = append(ghosts, s)
				}
			}
			for s := range active {
				if s != 0 && !jact[s] {
					freed = append(freed, s)
				}
			}
			sort.Ints(ghosts)
			sort.Ints(freed)
			if !sameInts(ghosts, c.GhostSlots) {
				v("host %d recover seam claims ghost slots %v, journal-vs-memory delta says %v", host, c.GhostSlots, ghosts)
			}
			if !sameInts(freed, c.FreedSlots) {
				v("host %d recover seam claims freed slots %v, journal-vs-memory delta says %v", host, c.FreedSlots, freed)
			}
			if len(c.Departed) != len(freed) {
				v("host %d recover seam resolves %d departures for %d freed slots", host, len(c.Departed), len(freed))
			}
			// The recovered history is the folded image verbatim — the
			// bit-identical guarantee — plus the rejoin epoch.
			jact[0] = true
			next := make([]expectEpoch, 0, len(pendingFolded)+1)
			for i := range pendingFolded {
				rec := &pendingFolded[i]
				ra := make(map[int]bool, len(rec.Slots))
				for s, sc := range rec.Slots {
					if sc.Active {
						ra[s] = true
					}
				}
				next = append(next, expectEpoch{version: rec.Version, active: ra, bytes: rec.TableBytes})
			}
			expect = next
			active = jact
			applyOps(c)
			expect = append(expect, expectEpoch{version: c.Version, active: cloneActive()})
			pendingFolded, pendingMax = nil, 0
		case "evacuate":
			if !down || dead {
				v("host %d evacuate seam (seq %d) without a preceding crash", host, c.Seq)
				return
			}
			dead = true
		default:
			if down || dead {
				v("host %d commit seq %d while down or dead", host, c.Seq)
				return
			}
			if c.Version <= last() {
				v("host %d commit seq %d installed version %d, not past %d", host, c.Seq, c.Version, last())
			}
			applyOps(c)
			expect = append(expect, expectEpoch{version: c.Version, active: cloneActive()})
		}
	}

	if len(hist) != len(expect) {
		v("host %d holds %d epochs but the replayed ledger expects %d", host, len(hist), len(expect))
		return
	}
	for i := range hist {
		ep := hist[i]
		want := expect[i]
		if ep.Version != want.version {
			v("host %d epoch %d has version %d, replay expects %d", host, i, ep.Version, want.version)
			continue
		}
		if want.bytes != nil && !bytes.Equal(ep.Bytes, want.bytes) {
			v("host %d epoch %d (version %d) is not bit-identical to the journal replay", host, i, ep.Version)
		}
		held := make(map[int]bool, len(ep.Guarantees))
		for _, g := range ep.Guarantees {
			if held[g.VCPU] {
				v("host %d epoch %d holds duplicate guarantees for slot %d", host, ep.Version, g.VCPU)
			}
			held[g.VCPU] = true
		}
		for slot := range want.active {
			if !held[slot] {
				v("host %d epoch %d: live slot %d lost its guarantee", host, ep.Version, slot)
			}
		}
		for slot := range held {
			if !want.active[slot] {
				v("host %d epoch %d: slot %d holds a guarantee but no committed op activated it", host, ep.Version, slot)
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
