// Command perfbench is the repository's benchmark: four seeded,
// closed-loop workloads over the fleet arbiter, the single-host
// control plane and the simulated data plane. Each run checks that the
// program's outputs are correct, then prints its metrics; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// probes in the way. With --trace 1 the measured phase alternates
// untraced and traced segments (U T T U U T ...): the traced segments
// give the per-layer metrics, and the difference between the two kinds
// of segment is reported as the tracing overhead. Any correctness
// failure exits nonzero and prints no metrics.
//
// Usage:
//
//	bash perfbench/run.sh --workload fleet-live --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare old.out new.out
//
// run.sh builds this package into .bench_build/ and execs it from the
// repository root, where the program reads BENCHMARK.json for the
// metrics it must report. The line before the result is a report with
// every metric's sample count, ratio base, the seed and the host
// fingerprint; compare reads it from two runs' saved standard output.
// spec.json says what every metric means on every workload and which
// end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives: its seed, how long to
// measure, and whether this is the traced run.
type runConfig struct {
	seed  int64
	dur   time.Duration
	trace bool
}

// window is the measured work of one segment, or of one repetition.
type window struct {
	ops  int64     // operations that count toward ops_per_s
	busy float64   // seconds the ops_per_s denominator covers
	lat  []float64 // primary-operation latencies, µs
}

// outcome is what one workload run hands back for reporting.
type outcome struct {
	setup     [2][]float64 // set-up repetitions, seconds: [untraced, traced]
	heap      []float64    // live heap after each set-up and a forced GC, MB
	wins      [2][]window  // measured windows: [untraced, traced]
	tailQ     float64      // the fixed quantile latency_tail_us reports
	poolTail  bool         // take it over the pooled windows: windows are too thin for it
	aliases   []alias      // the workload's own names for end-to-end metrics
	attempted int64        // operations attempted in the measured phase
	named     []Metric     // the workload's own end-to-end names
	layers    []Metric     // per-layer metrics (traced runs only)
}

// alias reports end-to-end metric from again under the workload's own
// name, scaled into unit.
type alias struct {
	from, to string
	scale    float64
	unit     string
}

// addSegments files each measured segment's window under its kind.
func (o *outcome) addSegments(trace bool, segs []window) {
	for k, w := range segs {
		kind := segmentKind(trace, k)
		o.wins[kind] = append(o.wins[kind], w)
	}
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []benchWorkload{
	{"fleet-live", fleetLive},
	{"fleet-storm", fleetStorm},
	{"host-replan", hostReplan},
	{"sim-dense", simDense},
}

// segments is how many segments a run's measured phase is cut into.
// Each is a window of its own, and in a traced run they alternate
// between untraced and traced.
const segments = 10

// segmentKind is 1 when measured segment k of a traced run is traced,
// else 0. The order is U T T U U T T U ..., so slow drift over a run
// falls on both kinds alike.
func segmentKind(trace bool, k int) int {
	if trace && (k%2 == 1) == ((k/2)%2 == 0) {
		return 1
	}
	return 0
}

// e2e computes the end-to-end metrics of one kind of window. Each
// figure is the median over the windows, so a stalled second moves one
// window, not the figure (windowTail says when the tail is pooled). A
// traced run's figures only feed the tracing overhead, so there a tail
// short of samples reports 0 and why instead of failing the run.
func e2e(o *outcome, kind int, strict bool) ([]Metric, error) {
	var rate, p50 []float64
	var ops, n int64
	var busy float64
	for _, w := range o.wins[kind] {
		if w.ops == 0 || w.busy <= 0 {
			continue
		}
		ops += w.ops
		busy += w.busy
		rate = append(rate, float64(w.ops)/w.busy)
		if len(w.lat) > 0 {
			n += int64(len(w.lat))
			p50 = append(p50, median(w.lat))
		}
	}
	if len(rate) == 0 || len(p50) == 0 {
		return nil, errors.New("measured phase completed no operation")
	}
	if len(o.setup[kind]) == 0 {
		return nil, errors.New("no set-up repetition")
	}
	tail, err := windowTail("latency_tail_us", o.wins[kind], o.tailQ, o.poolTail)
	if err != nil && strict {
		return nil, err
	}
	return []Metric{
		medianOf("setup_s", "s", o.setup[kind]),
		{Name: "ops_per_s", Value: median(rate), Unit: "1/s", Samples: int(ops),
			Base: fmt.Sprintf("median of %d windows; %d ops / %.3f s", len(rate), ops, busy)},
		{Name: "latency_p50_us", Value: median(p50), Unit: "us", Samples: int(n),
			Base: fmt.Sprintf("median of %d windows", len(p50))},
		tail,
		medianOf("heap_live_mb", "MB", o.heap),
	}, nil
}

// overhead reports traced minus untraced for every end-to-end metric
// the tracing can move (the set-up heap is not split by kind).
func overhead(plain, traced []Metric) []Metric {
	var out []Metric
	for i, m := range plain {
		if m.Name == "heap_live_mb" {
			continue
		}
		t := traced[i]
		if t.Value == 0 || m.Value == 0 {
			out = append(out, Metric{Name: "trace_overhead." + m.Name, Unit: m.Unit, Base: "too few samples"})
			continue
		}
		out = append(out, Metric{
			Name: "trace_overhead." + m.Name, Value: t.Value - m.Value, Unit: m.Unit,
			Samples: t.Samples, Base: fmt.Sprintf("traced %g - untraced %g", t.Value, m.Value),
		})
	}
	return out
}

// report is the full record of one run.
type report struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Attempted   int64       `json:"attempted"`
	Metrics     []Metric    `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-live, fleet-storm, host-replan or sim-dense")
	seed := fs.Int64("seed", spec.DefaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	bf, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	o, err := wl.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}

	rep := report{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.trace,
		Fingerprint: hostFingerprint(), Attempted: o.attempted,
	}
	var final []Metric
	plain, err := e2e(o, 0, !cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if cfg.trace {
		traced, err := e2e(o, 1, false)
		if err != nil {
			return fmt.Errorf("%s traced segments: %w", wl.name, err)
		}
		if final, err = completeLayers(append(o.layers, overhead(plain, traced)...), bf.PerLayer); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		rep.Metrics = final
	} else {
		if err := checkEndToEnd(plain, bf.EndToEnd); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		final = plain
		rep.Metrics = append([]Metric(nil), plain...)
		for _, a := range o.aliases {
			for _, m := range plain {
				if m.Name == a.from {
					m.Name, m.Value, m.Unit = a.to, m.Value*a.scale, a.unit
					rep.Metrics = append(rep.Metrics, m)
				}
			}
		}
		rep.Metrics = append(rep.Metrics, o.named...)
	}

	printTable(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	res := result{Correct: true, Attempted: o.attempted, Metrics: map[string]valueUnit{}}
	for _, m := range final {
		res.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// printTable writes the report to standard error for a human reader.
func printTable(rep report) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d trace=%v seconds=%g attempted=%d\n", rep.Workload, rep.Seed, rep.Trace, rep.Seconds, rep.Attempted)
	fmt.Fprintf(&b, "host: %s\n", rep.Fingerprint)
	ms := append([]Metric(nil), rep.Metrics...)
	if rep.Trace {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	}
	for _, m := range ms {
		fmt.Fprintf(&b, "  %-36s %14.4f %-10s n=%-7d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Base)
	}
	fmt.Fprint(os.Stderr, b.String())
}
