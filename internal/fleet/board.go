package fleet

import (
	"runtime"
	"sync/atomic"
)

// headroom is one host's entry on the arbiter's headroom board: the
// host's Snapshot, published at the end of every critical section that
// changes it and read without the host lock. The board is one
// contiguous []headroom, so a placer's per-attempt sweep of every host
// is a linear scan of adjacent memory rather than 1000 lock round trips.
//
// Entries are seqlocks. The single writer (whoever holds the host's
// mutex) makes seq odd, stores the fields, and makes seq even again; a
// reader retries while seq is odd or moved during its loads. Every
// field is a sync/atomic word, so the protocol is race-detector clean.
type headroom struct {
	seq     atomic.Uint64
	version atomic.Uint64
	freePPM atomic.Int64
	packed  atomic.Uint64 // see pack
}

// pack folds the small fields into one word: freeSlots<<8 | state<<1 | spare.
func pack(freeSlots int, state HostState, spare bool) uint64 {
	p := uint64(freeSlots)<<8 | uint64(state)<<1
	if spare {
		p |= 1
	}
	return p
}

func unpack(p uint64) (freeSlots int, state HostState, spare bool) {
	return int(p >> 8), HostState(p >> 1 & 0x7f), p&1 != 0
}

// store publishes s. The caller holds the owning host's mutex, which
// makes it the entry's only writer.
func (e *headroom) store(s Snapshot) {
	seq := e.seq.Load()
	e.seq.Store(seq + 1)
	e.version.Store(s.Version)
	e.freePPM.Store(s.FreePPM)
	e.packed.Store(pack(s.FreeSlots, s.State, s.Spare))
	e.seq.Store(seq + 2)
}

// words returns the entry's fields from one whole publication, never a
// mix of two.
func (e *headroom) words() (version uint64, freePPM int64, packed uint64) {
	for {
		seq := e.seq.Load()
		version, freePPM, packed = e.version.Load(), e.freePPM.Load(), e.packed.Load()
		if seq&1 == 0 && e.seq.Load() == seq {
			return version, freePPM, packed
		}
		// A writer is mid-publication; it holds the host lock for a few
		// stores, so let it finish rather than spin against it.
		runtime.Gosched()
	}
}

// load returns the last published snapshot of host id.
func (e *headroom) load(id int) Snapshot {
	version, freePPM, packed := e.words()
	slots, state, spare := unpack(packed)
	return Snapshot{Host: id, Version: version, FreeSlots: slots, FreePPM: freePPM, State: state, Spare: spare}
}
