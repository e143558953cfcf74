package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/objective"
	"repro/internal/runtime"
)

// The wrapper must keep both extensions, or Shards silently falls back to
// the serial path and fault masks are compacted.
var (
	_ runtime.MaskAware   = (*timedScheduler)(nil)
	_ runtime.CellDecider = (*timedScheduler)(nil)
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	if v, _ := percentile(xs, 50); v != 100.5 {
		t.Fatalf("p50 = %v, want 100.5", v)
	}
	// 200 samples leave exactly 10 beyond the p95.
	if v, ok := percentile(xs, 95); !ok || v < 190 || v > 191 {
		t.Fatalf("p95 of 200 = %v supported=%v, want ~190 and supported", v, ok)
	}
	if _, ok := percentile(xs[:199], 95); ok {
		t.Fatal("p95 of 199 samples reported as supported; it has fewer than 10 samples beyond it")
	}
	if _, ok := percentile(xs, 99); ok {
		t.Fatal("p99 of 200 samples reported as supported")
	}
	for n, want := range map[int]float64{15: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	if xs[0] != 200 {
		t.Fatal("percentile reordered its input")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i <= 16; i++ {
		s := daySeed(2024, i)
		if seen[s] {
			t.Fatalf("day seed %d repeats", i)
		}
		seen[s] = true
		if s != daySeed(2024, i) {
			t.Fatal("day seed is not a function of (seed, day)")
		}
	}
	if daySeed(2024, 0) == daySeed(2025, 0) {
		t.Fatal("day seed ignores the run seed")
	}
	w := findWorkload("wire_day")
	sys := wideSystem(w, 5)
	a, b := wireScript(w, sys, 5, 400), wireScript(w, wideSystem(w, 5), 5, 400)
	if len(a.Ops) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("churn script not reproducible (%d ops)", len(a.Ops))
	}
	if reflect.DeepEqual(a, wireScript(w, sys, 6, 400)) {
		t.Fatal("churn script ignores the seed")
	}
}

func TestWrappedSchedulerReachesDecideCell(t *testing.T) {
	sys := exp.NewSystem(32, 8, 3)
	for j := range sys.Servers {
		sys.Servers[j].Uplink *= 4
	}
	ts := &timedScheduler{inner: &runtime.FixedScheduler{Cfg: fixedCfg}, log: newSpanLog()}
	rt := &runtime.Controller{
		Sys: sys, Sched: ts, Truth: truth, Norm: objective.NewNormalizer(sys),
		Opt: runtime.Options{ReplanEvery: 1, Shards: 4, Check: check.New(true, nil)},
		Ops: &tickSource{},
	}
	trace, err := rt.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 3 {
		t.Fatalf("%d epochs, want 3", len(trace.Reports))
	}
	if _, calls := ts.log.totalUS("decide_cell"); calls != 3*4 {
		t.Fatalf("DecideCell ran %d times, want 12: the wrapper hid CellDecider and Shards fell back to the serial path", calls)
	}
}

func TestResultRoundTrips(t *testing.T) {
	in := result{Correct: true, Attempted: 1000, Failed: 2, Metrics: map[string]metric{
		"epoch_p50_ms": {Value: 1.2034, Unit: "ms"},
		"setup_s":      {Value: 0.8127, Unit: "s"},
	}}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("result keys %v, want %v", names, want)
	}
	var out result
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the result: %+v vs %+v", in, out)
	}
}

// TestContractInStep holds BENCHMARK.json to what the program emits.
func TestContractInStep(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Error("per_layer in BENCHMARK.json differs from perLayer in layers.go")
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.Name)
		}
	}
	res, _ := endToEnd(&laps{w: workloads[0], byDay: make([]*dayResult, 1), days: []dayResult{{Epochs: 1, EpochMS: []float64{1}, Replan: []bool{true}, WallS: 1}}}, []float64{1})
	for _, m := range c.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s) of BENCHMARK.json: program emits %+v", m.Name, m.Unit, got)
		}
	}
	if len(res.Metrics) != len(c.EndToEnd) {
		t.Errorf("program emits %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(c.EndToEnd))
	}
}

// TestSmoke runs every workload end to end at the smoke scale, untraced and
// traced.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = null
	defer func() { os.Stdout = stdout; null.Close() }()

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 2024, 0, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := 12
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), want)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, w.Name+".spans.jsonl")); err != nil {
			t.Errorf("%s: traced pass wrote no spans: %v", w.Name, err)
		}
	}
}
