// Command bench is the repository's one benchmark: four workloads, each a
// "day" of the PaMO control loop under a different traffic shape, measured
// end to end (tracing off) and, in a separate traced pass, layer by layer.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory explains every metric.
//
// Everything is measured from outside the program: by timing calls into
// public functions, by wrapping the runtime's public seams, and by reading
// what the program already exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// benchProcs pins GOMAXPROCS so numbers from hosts with more cores compare.
const benchProcs = 2

// outDir is relative to the working directory, which the contract makes the
// root of the checkout.
var outDir = filepath.Join("bench", "out")

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process: "+workloadNames())
		seed      = flag.Uint64("seed", 2024, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "how long the measured phase runs")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		smoke     = flag.Bool("smoke", false, "tiny scale: days of at most 50 epochs, one lap each")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on one seed and once on seed 7, and compare")
	)
	flag.StringVar(&outDir, "out", outDir, "directory the traced pass writes <workload>.spans.jsonl into")
	flag.Parse()
	goruntime.GOMAXPROCS(benchProcs)

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *smoke))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *smoke))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runWorkload is one driver-contract run: warm up, measure for the given
// time, check the outputs, print every metric by name with its unit.
func runWorkload(w *workload, seed uint64, seconds float64, traced, smoke bool) (result, error) {
	began := time.Now()
	p := fullPlan(w, seconds)
	if smoke {
		p = smokePlan(w)
		probeWarm, probeCalls = 1, 5
	}
	fmt.Printf("%s seed=%d trace=%v GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		w, seed, traced, goruntime.GOMAXPROCS(0), goruntime.NumCPU(), goruntime.Version(), commit())

	// Before the clock starts: page in the code, grow the heap, fill the pools.
	setups, err := coldStarts(w, seed, p)
	if err != nil {
		return result{}, err
	}

	var res result
	var notes []string
	if traced {
		res, notes = tracedPass(w, seed, p)
	} else {
		pick := func(i int) int { return i % w.Days }
		l := measure(w, seed, p, pick, func(int) *tracer { return nil })
		res, notes = endToEnd(l, setups)
		fmt.Printf("fingerprint %016x\n", l.fingerprint())
		for _, p := range l.problem {
			notes = append(notes, "INCORRECT: "+p)
		}
	}
	printMetrics(res, notes)
	fmt.Printf("wall %.1f s\n", time.Since(began).Seconds())
	return res, nil
}

func printMetrics(res result, notes []string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  attempted %d epochs, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// commit names the code under test when the build was stamped with it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}
