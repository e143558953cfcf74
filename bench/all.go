package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Contract figures from the builder's instructions: the driver makes
// 4 + 22 × workloads runs and all of them must end within contractCapS.
const (
	contractCapS      = 3420
	contractRunsBase  = 4
	contractRunsPerWL = 22
)

// contract is the part of BENCHMARK.json the benchmark reads back.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	err = json.Unmarshal(data, &c)
	return c, err
}

// childRun is one workload run in its own process, so heap state and the
// resident-set high-water mark are per workload.
type childRun struct {
	res         result
	fingerprint string
}

func runChild(name string, seed uint64, seconds float64, trace int, smoke bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var run childRun

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if fp, ok := strings.CutPrefix(line, "fingerprint "); ok {
			run.fingerprint = fp
		}
		if line != "" {
			last = line
		}
		if !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return run, fmt.Errorf("%s: no result line (%v; exit: %v)", name, err, runErr)
	}
	if runErr != nil {
		return run, fmt.Errorf("%s: %w", name, runErr)
	}
	return run, nil
}

// set is one full pass: every workload, end to end and traced.
type set struct {
	e2e, layers map[string]childRun // by workload
	wallS       float64
}

func runSet(seed uint64, seconds float64, smoke bool) (set, error) {
	s := set{e2e: map[string]childRun{}, layers: map[string]childRun{}}
	t0 := time.Now()
	for _, w := range workloads {
		for trace, into := range []map[string]childRun{s.e2e, s.layers} {
			run, err := runChild(w.Name, seed, seconds, trace, smoke)
			if err != nil {
				return s, err
			}
			into[w.Name] = run
		}
	}
	s.wallS = time.Since(t0).Seconds()
	return s, nil
}

// runAll is the one command: four workloads, every metric by name with its
// unit, outputs checked, and the wall time held against the contract's cap.
func runAll(seed uint64, seconds float64, smoke bool) int {
	s, err := runSet(seed, seconds, smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runs := float64(2 * len(workloads))
	projected := s.wallS / runs * float64(contractRunsBase+contractRunsPerWL*len(workloads))
	fmt.Printf("total wall %.1f s for %d runs; %d contract runs at this pace take %.0f s of the %d s cap\n",
		s.wallS, int(runs), contractRunsBase+contractRunsPerWL*len(workloads), projected, contractCapS)
	if !smoke && projected > contractCapS {
		fmt.Fprintln(os.Stderr, "bench: the contract's runs would not fit its time cap")
		return 1
	}
	return 0
}

// relGap is how much worse b reads than a, as a share of a, in the metric's
// own direction; negative when b is better.
func relGap(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	gap := (b - a) / math.Abs(a)
	if better == "higher" {
		gap = -gap
	}
	return gap
}

// runSelfcheck runs the full set twice on one seed and once on seed 7. The
// two same-seed sets must agree within each end-to-end metric's own bound
// (either direction) and on every fingerprint, and every traced pass must
// close.
func runSelfcheck(seed uint64, seconds float64, smoke bool) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck reads BENCHMARK.json from the working directory:", err)
		return 1
	}
	var sets []set
	for _, sd := range []uint64{seed, seed, 7} {
		s, err := runSet(sd, seconds, smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets = append(sets, s)
	}
	a, b, other := sets[0], sets[1], sets[2]
	bad := 0
	fmt.Printf("\n%-12s %-20s %14s %14s %9s %7s %14s\n", "workload", "metric", "set A", "set B", "gap", "bound", "seed 7")
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			va, vb, vo := a.e2e[w.Name].res.Metrics[m.Name].Value, b.e2e[w.Name].res.Metrics[m.Name].Value, other.e2e[w.Name].res.Metrics[m.Name].Value
			gap := math.Abs(relGap(va, vb, m.Better))
			mark := ""
			// Set-up time is exempt from the spread rule in the contract too.
			if gap > m.Bound && m.Name != "setup_s" && !smoke {
				mark = "  <-- beyond bound"
				bad++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %8.2f%% %6.1f%% %14.6g%s\n", w.Name, m.Name, va, vb, 100*gap, 100*m.Bound, vo, mark)
		}
		if fa, fb := a.e2e[w.Name].fingerprint, b.e2e[w.Name].fingerprint; fa == "" || fa != fb {
			fmt.Printf("%-12s fingerprints differ between the same-seed sets: %q vs %q\n", w.Name, fa, fb)
			bad++
		}
		for _, s := range sets {
			if gap := s.layers[w.Name].res.Metrics["runtime.attribution_gap_pct"].Value; gap >= 5 {
				fmt.Printf("%-12s traced pass does not close: attribution gap %.2f%%\n", w.Name, gap)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d failures\n", bad)
		return 1
	}
	fmt.Println("selfcheck: ok")
	return 0
}
