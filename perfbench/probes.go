package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tableau/internal/dispatch"
	"tableau/internal/experiments"
	"tableau/internal/fleet"
	"tableau/internal/journal"
	"tableau/internal/table"
)

// The probes below time the program from outside: they wrap only the
// interfaces a caller already supplies (fleet.Config.ForEach,
// core.TableSink, journal.Store) and are switched on for traced
// segments alone.

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fanout wraps experiments.ForEach as a fleet.Config.ForEach, timing
// every call and every cell while on.
type fanout struct {
	on atomic.Bool

	mu          sync.Mutex
	calls       int64
	cells       int64
	busy, wall  time.Duration
	maxOverMean []float64 // per call with 2+ cells: slowest cell / mean cell
}

func (f *fanout) ForEach(n int, fn func(i int) error) error {
	if !f.on.Load() {
		return experiments.ForEach(n, fn)
	}
	durs := make([]time.Duration, n)
	start := time.Now()
	err := experiments.ForEach(n, func(i int) error {
		t := time.Now()
		e := fn(i)
		durs[i] = time.Since(t)
		return e
	})
	wall := time.Since(start)
	var busy, slowest time.Duration
	for _, d := range durs {
		busy += d
		slowest = max(slowest, d)
	}
	f.mu.Lock()
	f.calls++
	f.cells += int64(n)
	f.busy += busy
	f.wall += wall
	if n > 1 && busy > 0 {
		f.maxOverMean = append(f.maxOverMean, float64(slowest)*float64(n)/float64(busy))
	}
	f.mu.Unlock()
	return err
}

// layers reports the fan-out per unit of work: calls per op of the
// workload (named by what), the rest per call.
func (f *fanout) layers(what string, ops float64) []Metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	procs := float64(runtime.GOMAXPROCS(0))
	calls := float64(f.calls)
	return []Metric{
		per("fanout.calls", "1/op", "ForEach calls", calls, what, ops),
		per("fanout.cells", "1/call", "cells", float64(f.cells), "ForEach calls", calls),
		per("fanout.busy_s", "s/call", "cell busy s", f.busy.Seconds(), "ForEach calls", calls),
		per("fanout.wall_s", "s/call", "wall s", f.wall.Seconds(), "ForEach calls", calls),
		ratio("fanout.parallel_eff", "cell busy s", f.busy.Seconds(), "wall s x GOMAXPROCS", f.wall.Seconds()*procs),
		meanOf("fanout.cell_max_over_mean", "ratio", f.maxOverMean),
	}
}

// timedStore is a journal.Store that times appends and syncs. cur
// accumulates store time since the caller last reset it, so a flush's
// store child span can be subtracted from the flush span.
type timedStore struct {
	journal.Store
	on       bool
	cur      time.Duration
	appendUs []float64
	syncUs   []float64
	recBytes []float64
}

func (s *timedStore) Append(rec []byte) error {
	t := time.Now()
	err := s.Store.Append(rec)
	d := time.Since(t)
	s.cur += d
	if s.on {
		s.appendUs = append(s.appendUs, us(d))
		s.recBytes = append(s.recBytes, float64(len(rec)))
	}
	return err
}

func (s *timedStore) Sync() error {
	t := time.Now()
	err := s.Store.Sync()
	d := time.Since(t)
	s.cur += d
	if s.on {
		s.syncUs = append(s.syncUs, us(d))
	}
	return err
}

// timedSink is a core.TableSink around a dispatcher that counts every
// table push and, while on, times it. It forwards AbortStaged so the
// controller's emergency rollback path sees the same sink capability as
// without the probe.
type timedSink struct {
	d      *dispatch.Dispatcher
	on     bool
	pushes int64
	cur    time.Duration
	us     []float64
}

func (s *timedSink) PushTable(tbl *table.Table) error {
	s.pushes++
	t := time.Now()
	err := s.d.PushTable(tbl)
	d := time.Since(t)
	s.cur += d
	if s.on {
		s.us = append(s.us, us(d))
	}
	return err
}

func (s *timedSink) AbortStaged() *table.Table { return s.d.AbortStaged() }

// nullSink accepts every table, like the fleet hosts' own sinks.
type nullSink struct{}

func (nullSink) PushTable(*table.Table) error { return nil }

// sweepUs times one Host.Snapshot over every host: the read each Place
// attempt makes before it decides.
func sweepUs(hosts []*fleet.Host) float64 {
	t := time.Now()
	for _, h := range hosts {
		_ = h.Snapshot()
	}
	return us(time.Since(t))
}

// rtSample is a reading of the runtime's allocation and GC counters.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), allocObjs: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// rtAcc sums runtime counter deltas over chosen stretches of the
// measured phase (the untraced segments, where probes could allocate).
type rtAcc struct {
	sum rtSample
	ops int64
}

func (r *rtAcc) add(a, b rtSample, ops int64) {
	r.sum.allocBytes += b.allocBytes - a.allocBytes
	r.sum.allocObjs += b.allocObjs - a.allocObjs
	r.sum.gcCycles += b.gcCycles - a.gcCycles
	r.sum.gcCPU += b.gcCPU - a.gcCPU
	r.sum.totalCPU += b.totalCPU - a.totalCPU
	r.ops += ops
}

// layers reports allocation and GC per operation, and the live heap's
// growth over one stretch per unit of work (named by what).
func (r *rtAcc) layers(growth, work float64, what string) []Metric {
	return []Metric{
		per("runtime.alloc_bytes_per_op", "bytes/op", "bytes allocated", float64(r.sum.allocBytes), "ops", float64(r.ops)),
		per("runtime.allocs_per_op", "1/op", "objects allocated", float64(r.sum.allocObjs), "ops", float64(r.ops)),
		per("runtime.gc_cycles", "1/op", "GC cycles", float64(r.sum.gcCycles), "ops", float64(r.ops)),
		ratio("runtime.gc_cpu_share", "GC cpu s", r.sum.gcCPU, "total cpu s", r.sum.totalCPU),
		per("runtime.heap_growth_bytes_per_op", "bytes/op", "live heap growth bytes", growth, what, work),
	}
}

// liveHeap forces a GC and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// reset switches the probe off and clears what it has measured.
func (f *fanout) reset() {
	f.on.Store(false)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls, f.cells, f.busy, f.wall, f.maxOverMean = 0, 0, 0, 0, nil
}
