// Command perfbench is the repository benchmark. It drives the system
// through its public entry points on one of four workloads, checks every
// output against an independent serial replay (or committed golden text),
// and prints each metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 190, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (ops_per_s, op_p50_ms,
// op_p90_ms, setup_s, peak_rss_mb); with -trace 1 they are the per-layer
// profile of a traced run. Failures are counted in attempted/failed, which
// is the benchmark's error rate. See README.md for the workloads, the
// metrics and which end-to-end metric each layer metric should move.
//
// Usage (from the repository root; run.sh builds and then runs this):
//
//	bash perfbench/run.sh --workload dense-core --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the committed golden hashes were made with.
const defaultSeed = 1

// minOps is the fewest timed ops in an untraced run, so that at least ten
// samples lie beyond the reported p90.
const minOps = 100

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Int64("seed", defaultSeed, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 25, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		workdir = flag.String("workdir", ".bench_build/work", "scratch directory for datasets and trace files")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// One client process on at most two processors: the size every
	// recorded baseline was measured at.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	res, err := run(w, config{
		Seed: *seed, Measure: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Workdir: *workdir, Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkMetrics rejects a metric set that is not exactly the declared list,
// or whose names or values the report format cannot carry.
func checkMetrics(m map[string]metric, want []metricDef) error {
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(m), len(want))
	}
	for _, d := range want {
		if v, ok := m[d.Name]; !ok || v.Unit != d.Unit {
			return fmt.Errorf("metric %s (%s) missing or with another unit", d.Name, d.Unit)
		}
	}
	for name, v := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number: %v", name, v.Value)
		}
	}
	return nil
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
