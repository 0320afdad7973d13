package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// spec.json holds what the repository's BENCHMARK.json has no key for:
// the default and held-out seeds, what each end-to-end metric means on
// each workload, and, for every per-layer metric, which end-to-end
// metric on which workload it should move.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	PerWorkload map[string]map[string]string `json:"per_workload"`
	Moves       map[string][]string          `json:"moves"`
}

var spec = mustSpec()

func mustSpec() benchSpec {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		panic(fmt.Sprintf("perfbench: spec.json: %v", err))
	}
	return s
}

// benchFile is what the program reads from BENCHMARK.json: the
// workloads and every metric's name, unit and direction.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmark(path string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// checkEndToEnd demands that an untraced run reports exactly the
// end-to-end metrics BENCHMARK.json lists, in its order and units.
func checkEndToEnd(ms []Metric, listed []benchMetric) error {
	if len(ms) != len(listed) {
		return fmt.Errorf("%d end-to-end metrics, BENCHMARK.json lists %d", len(ms), len(listed))
	}
	for i, l := range listed {
		if ms[i].Name != l.Name || ms[i].Unit != l.Unit {
			return fmt.Errorf("end-to-end metric %d is %s in %s, BENCHMARK.json lists %s in %s",
				i, ms[i].Name, ms[i].Unit, l.Name, l.Unit)
		}
	}
	return nil
}

// completeLayers orders a traced run's metrics as BENCHMARK.json lists
// them and reports 0 for every layer the workload does not exercise, so
// every traced run prints the same set. A metric reported twice, in
// another unit than BENCHMARK.json gives, or not listed there is a bug
// in the benchmark.
func completeLayers(ms []Metric, listed []benchMetric) ([]Metric, error) {
	got := make(map[string]Metric, len(ms))
	for _, m := range ms {
		if _, dup := got[m.Name]; dup {
			return nil, fmt.Errorf("per-layer metric reported twice: %s", m.Name)
		}
		got[m.Name] = m
	}
	out := make([]Metric, 0, len(listed))
	for _, l := range listed {
		m, ok := got[l.Name]
		switch {
		case !ok:
			m = Metric{Name: l.Name, Unit: l.Unit, Base: "layer not exercised by this workload"}
		case m.Unit != l.Unit:
			return nil, fmt.Errorf("per-layer metric %s is in %s, BENCHMARK.json says %s", m.Name, m.Unit, l.Unit)
		}
		out = append(out, m)
		delete(got, l.Name)
	}
	for name := range got {
		return nil, fmt.Errorf("per-layer metric missing from BENCHMARK.json: %s", name)
	}
	return out, nil
}
