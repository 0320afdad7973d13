package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the host a result was measured on. Results
// from different fingerprints are not comparable: the same code can
// move by tens of percent between hosts, and a GOMAXPROCS of 1 hides
// every parallel path.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s %s", f.CPU, f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.OSArch)
}

func hostFingerprint() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadReport reads the report line from a run's saved standard output.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"fingerprint"`)) {
			continue
		}
		var r report
		if err := json.Unmarshal(line, &r); err != nil {
			return report{}, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	return report{}, fmt.Errorf("%s: no report line", path)
}

// compareMain prints the per-metric change from a base report to a new
// one. It refuses reports of different workloads, run kinds or host
// fingerprints, exiting 2.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base report> <new report>")
		return 2
	}
	base, err := loadReport(args[0])
	if err == nil {
		var cur report
		cur, err = loadReport(args[1])
		if err == nil {
			err = printComparison(base, cur)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	return 0
}

func printComparison(base, cur report) error {
	if base.Fingerprint != cur.Fingerprint {
		return fmt.Errorf("host fingerprints differ:\n  base: %s\n  new:  %s", base.Fingerprint, cur.Fingerprint)
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		return fmt.Errorf("reports measure different things: %s trace=%v vs %s trace=%v",
			base.Workload, base.Trace, cur.Workload, cur.Trace)
	}
	if base.Seconds != cur.Seconds {
		return fmt.Errorf("run lengths differ: %gs vs %gs", base.Seconds, cur.Seconds)
	}
	fmt.Printf("%s trace=%v, seeds %d -> %d, host %s\n", cur.Workload, cur.Trace, base.Seed, cur.Seed, cur.Fingerprint)
	old := make(map[string]Metric, len(base.Metrics))
	for _, m := range base.Metrics {
		old[m.Name] = m
	}
	for _, m := range cur.Metrics {
		b, ok := old[m.Name]
		if !ok {
			fmt.Printf("  %-36s %14.4f %-10s (new)\n", m.Name, m.Value, m.Unit)
			continue
		}
		delta := "n/a"
		if b.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(m.Value-b.Value)/b.Value)
		}
		fmt.Printf("  %-36s %14.4f -> %14.4f %-10s %s\n", m.Name, b.Value, m.Value, m.Unit, delta)
	}
	return nil
}
