// Command perfbench is the DataCell benchmark. It drives the engine
// through its public API from one generator process, checks every
// result against a reference computed from the generated inputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	perfbench --workload filter_fanout --seed 1 --seconds 10 --trace 0
//
// Run it through run.py from the repository root, which builds it with
// a build cache inside the checkout. See README.md for the workloads and
// the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// scratchRoot is where runs keep data directories and span files,
// relative to the checkout root the benchmark is started from.
const scratchRoot = ".bench_build"

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	// Never run wider than the host: GOMAXPROCS may be inherited from an
	// environment that claims more CPUs than the machine has.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	printHost(name, seed, seconds, traced)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := newHarness(ctx, mk(seed), time.Duration(seconds)*time.Second, dir, traced)
	rep, err := d.run()
	if err != nil {
		return err
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	var defs []metricDef
	if traced {
		defs = layerMetrics
		if err := d.tr.write(filepath.Join(scratchRoot, fmt.Sprintf("spans-%s-%d.json", name, seed))); err != nil {
			return err
		}
	} else {
		defs = endToEnd
	}
	for _, m := range defs {
		v, ok := rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("metric %-32s %14.6g %-8s moves: %s\n", m.name, v, m.unit, m.moves)
	}
	for _, line := range rep.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d of %d attempted operations failed", rep.failed, rep.attempted)
	}
	return nil
}

// printHost records the real host with every result.
func printHost(name string, seed int64, seconds int, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.py
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("host num_cpu=%d gomaxprocs=%d go=%s os=%s/%s commit=%s workload=%s seed=%d seconds=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, name, seed, seconds, traced)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workloads are the benchmark's traffic mixes by name.
var workloads = map[string]func(seed int64) workload{
	"filter_fanout": newFilterFanout,
	"windowed_agg":  newWindowedAgg,
	"durable_join":  newDurableJoin,
}

// fingerprint mixes a value (splitmix64) so that sums of fingerprints
// detect missing, duplicate and substituted rows independent of order.
func fingerprint(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
