package main

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tableau/internal/core"
	"tableau/internal/journal"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: the rule refuses
	}{
		{1000, 0.99, 990}, // 10 samples beyond rank 990
		{999, 0.99, 0},    // only 9 beyond
		{100, 0.9, 90},    // 10 beyond
		{99, 0.9, 0},      // 9 beyond
		{10000, 0.999, 9990},
		{1, 0.5, 1}, // the median is never refused
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", tc.q*100, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.q*100, tc.n, got, err, tc.want)
		}
		idx, beyond := quantileRank(tc.n, tc.q)
		if tc.q > 0.5 && beyond < minBeyond {
			t.Errorf("rank %d of %d leaves %d beyond", idx, tc.n, beyond)
		}
	}
}

func TestTailMetricReportsZeroWhenThin(t *testing.T) {
	m := tailMetric("x", "us", seq(50), 0.99)
	if m.Value != 0 || m.Samples != 50 || !strings.Contains(m.Base, "need 10") {
		t.Errorf("thin tail reported %+v", m)
	}
	m = tailMetric("x", "us", seq(2000), 0.99)
	if m.Value != 1980 || m.Samples != 2000 || m.Base != "" {
		t.Errorf("tail reported %+v", m)
	}
}

func TestSampleCounts(t *testing.T) {
	if m := medianOf("m", "s", []float64{3, 1, 2}); m.Value != 2 || m.Samples != 3 {
		t.Errorf("median %+v", m)
	}
	if m := meanOf("m", "s", []float64{1, 2, 6}); m.Value != 3 || m.Samples != 3 {
		t.Errorf("mean %+v", m)
	}
	if m := meanOf("m", "s", nil); m.Value != 0 || m.Samples != 0 {
		t.Errorf("empty mean %+v", m)
	}
	if m := count("c", 7); m.Value != 7 || m.Unit != "count" {
		t.Errorf("count %+v", m)
	}
}

func TestRatioStatesItsBase(t *testing.T) {
	m := ratio("r", "hits", 3, "lookups", 12)
	if m.Value != 0.25 || m.Base != "hits / lookups = 3 / 12" {
		t.Errorf("ratio %+v", m)
	}
	if m := ratio("r", "hits", 3, "lookups", 0); m.Value != 0 || !strings.HasSuffix(m.Base, "= 3 / 0") {
		t.Errorf("zero-denominator ratio %+v", m)
	}
}

// synthetic is an outcome with one window of each kind.
func synthetic(lat int) *outcome {
	o := &outcome{tailQ: 0.99, heap: []float64{12}}
	for k := 0; k < 2; k++ {
		o.setup[k] = []float64{0.3, 0.1, 0.2}
		o.wins[k] = []window{{ops: 500, busy: 2, lat: seq(lat)}}
	}
	o.wins[1][0].busy = 4
	return o
}

func TestEndToEndBasesAndCounts(t *testing.T) {
	ms, err := e2e(synthetic(1000), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if m := byName["ops_per_s"]; m.Value != 250 || m.Samples != 500 || m.Base != "median of 1 windows; 500 ops / 2.000 s" {
		t.Errorf("ops_per_s %+v", m)
	}
	if m := byName["setup_s"]; m.Value != 0.2 || m.Samples != 3 {
		t.Errorf("setup_s %+v", m)
	}
	if m := byName["latency_tail_us"]; m.Value != 990 || m.Samples != 1000 || m.Base != "p99, median of 1 windows" {
		t.Errorf("latency_tail_us %+v", m)
	}
	if _, err := e2e(synthetic(500), 0, true); err == nil {
		t.Error("strict e2e accepted a p99 of 500 samples")
	}
	ms, err = e2e(synthetic(500), 1, false)
	if err != nil || ms[3].Value != 0 || !strings.Contains(ms[3].Base, "need 10") {
		t.Errorf("lenient e2e: %+v, %v", ms, err)
	}
}

func TestEndToEndMediansOverWindows(t *testing.T) {
	o := synthetic(1000)
	// Three windows; the middle one is the median of every figure, and
	// the stalled third window cannot move them.
	o.wins[0] = []window{
		{ops: 100, busy: 1, lat: seq(1000)},
		{ops: 120, busy: 1, lat: append(seq(1000), 2000, 2000)},
		{ops: 10, busy: 1, lat: append(seq(1000), seq(5000)...)},
	}
	ms, err := e2e(o, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ms[1].Value != 100 || ms[1].Samples != 230 || ms[1].Base != "median of 3 windows; 230 ops / 3.000 s" {
		t.Errorf("ops_per_s %+v", ms[1])
	}
	if ms[2].Value != 501 || ms[2].Samples != 8002 {
		t.Errorf("latency_p50_us %+v", ms[2])
	}
	if ms[3].Value != 992 || ms[3].Base != "p99, median of 3 windows" { // the middle window's p99
		t.Errorf("latency_tail_us %+v", ms[3])
	}
	o.poolTail = true
	if ms, _ = e2e(o, 0, true); ms[3].Base != "p99, 3 windows pooled" || ms[3].Samples != 8002 {
		t.Errorf("pooled latency_tail_us %+v", ms[3])
	}
	o.poolTail = false

	// A window too thin for p99 pools the tail over every window.
	o.wins[0] = append(o.wins[0], window{ops: 5, busy: 1, lat: seq(20)})
	ms, err = e2e(o, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if ms[3].Base != "p99, 4 windows pooled" || ms[3].Samples != 8022 {
		t.Errorf("pooled latency_tail_us %+v", ms[3])
	}
}

func TestOverheadIsTracedMinusUntraced(t *testing.T) {
	o := synthetic(1000)
	plain, _ := e2e(o, 0, true)
	traced, _ := e2e(o, 1, false)
	ov := overhead(plain, traced)
	if len(ov) != 4 {
		t.Fatalf("overhead reports %d metrics, want 4 (no heap)", len(ov))
	}
	if ov[1].Name != "trace_overhead.ops_per_s" || ov[1].Value != 125-250 {
		t.Errorf("ops_per_s overhead %+v", ov[1])
	}
}

func TestTracedSegmentsInterleave(t *testing.T) {
	var got strings.Builder
	traced := 0
	for k := 0; k < segments; k++ {
		if segmentKind(true, k) == 1 {
			got.WriteByte('T')
			traced++
		} else {
			got.WriteByte('U')
		}
	}
	if got.String() != "UTTUUTTUUT" || traced != segments/2 || segmentKind(false, 1) != 0 {
		t.Errorf("segment order %s", got.String())
	}
}

func TestCompleteLayers(t *testing.T) {
	listed := []benchMetric{{Name: "fleet.conflicts", Unit: "1/vm"}, {Name: "dispatch.schedule_ns", Unit: "ns"}}
	ms, err := completeLayers([]Metric{{Name: "fleet.conflicts", Value: 4, Unit: "1/vm"}}, listed)
	if err != nil || len(ms) != 2 {
		t.Fatalf("completeLayers: %+v, %v", ms, err)
	}
	if m := ms[0]; m.Name != "fleet.conflicts" || m.Value != 4 {
		t.Errorf("kept metric %+v", m)
	}
	if m := ms[1]; m.Name != "dispatch.schedule_ns" || m.Value != 0 || m.Unit != "ns" || m.Base == "" {
		t.Errorf("filled metric %+v", m)
	}
	for _, bad := range [][]Metric{
		{{Name: "no.such.metric"}},
		{{Name: "fleet.conflicts", Unit: "count"}},
		{{Name: "fleet.conflicts", Unit: "1/vm"}, {Name: "fleet.conflicts", Unit: "1/vm"}},
	} {
		if _, err := completeLayers(bad, listed); err == nil {
			t.Errorf("completeLayers accepted %+v", bad)
		}
	}
}

// TestProgramMatchesBenchmarkJSON keeps the program, spec.json and the
// repository's BENCHMARK.json in step: the same workloads, the
// end-to-end metrics in order and unit, a meaning on every workload for
// each of them and a target for every per-layer metric.
func TestProgramMatchesBenchmarkJSON(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json %d, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	plain, _ := e2e(synthetic(1000), 0, true)
	if err := checkEndToEnd(plain, b.EndToEnd); err != nil {
		t.Error(err)
	}
	if len(spec.PerWorkload) != len(b.EndToEnd) {
		t.Errorf("spec.json explains %d end-to-end metrics, BENCHMARK.json lists %d", len(spec.PerWorkload), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		for _, w := range workloads {
			if spec.PerWorkload[m.Name][w.name] == "" {
				t.Errorf("spec.json does not say what %s means on %s", m.Name, w.name)
			}
		}
	}
	if len(spec.Moves) != len(b.PerLayer) {
		t.Errorf("spec.json maps %d per-layer metrics, BENCHMARK.json lists %d", len(spec.Moves), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if len(spec.Moves[m.Name]) == 0 {
			t.Errorf("spec.json does not say what %s should move", m.Name)
		}
	}
	if spec.DefaultSeed == spec.HeldOutSeed {
		t.Error("the held-out seed must differ from the default seed")
	}
}

// failingStore is a journal store whose appends fail.
type failingStore struct{ journal.Store }

func (failingStore) Append([]byte) error { return errors.New("disk full") }

// TestReplanFlushFailsAfterPlanning: a host-replan flush that fails
// once the planner has placed the batch fails the run, while refusals
// are only counted.
func TestReplanFlushFailsAfterPlanning(t *testing.T) {
	h, err := newReplanHost(1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.ctrl.Close()
	rng := rand.New(rand.NewSource(1))
	version, _, err := h.flush(h.batch(rng))
	if err != nil || version == 0 {
		t.Fatalf("healthy flush: epoch %d, %v", version, err)
	}
	// Activating every idle slot overflows the host: admission refuses
	// some ops, and the flush still succeeds.
	var ops []core.Op
	for i := 0; i < replanSlots; i++ {
		if !h.sys.Active(i) {
			ops = append(ops, core.Op{Kind: core.OpActivate, Slot: i})
		}
	}
	if _, refused, err := h.flush(ops); err != nil || refused == 0 {
		t.Fatalf("overflowing flush: %d refused, %v", refused, err)
	}
	h.store.Store = failingStore{h.mem}
	if _, _, err := h.flush(h.batch(rng)); err == nil || !strings.Contains(err.Error(), "after planning") {
		t.Fatalf("flush with a failing journal: %v", err)
	}
}

func TestCompareRefusesMixedFingerprints(t *testing.T) {
	base := report{Workload: "fleet-live", Seconds: 10, Fingerprint: fingerprint{CPU: "a", NumCPU: 2, GOMAXPROCS: 2}}
	other := base
	other.Fingerprint.GOMAXPROCS = 1
	if err := printComparison(base, other); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("mixed fingerprints: %v", err)
	}
	other = base
	other.Trace = true
	if err := printComparison(base, other); err == nil {
		t.Error("compared an untraced report with a traced one")
	}
}
