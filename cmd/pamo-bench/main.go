// Command pamo-bench regenerates the paper's evaluation figures on the
// simulated substrate. Each figure prints as an aligned text table whose
// rows/series correspond to the paper's plots.
//
// Usage:
//
//	pamo-bench -fig all            # every figure (minutes)
//	pamo-bench -fig 6 -reps 1      # one figure, fewer repetitions
//	pamo-bench -fig ablation       # the DESIGN.md ablation suite
//
// Figures: 2, 3, 4, 6, 7, 8, 9, 10a, 10b, ablation, pricing, feasibility,
// noise, all. Any other name exits with status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/plot"
)

// figures are the names -fig accepts.
var figures = []string{"2", "3", "4", "6", "7", "8", "9", "10a", "10b", "ablation", "pricing", "feasibility", "noise", "all"}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figures, "|"))
	reps := flag.Int("reps", 0, "repetitions per data point (0 = paper default)")
	seed := flag.Uint64("seed", 2024, "base random seed")
	fast := flag.Bool("fast", false, "shrink PaMO budgets for a quick pass")
	svg := flag.String("svg", "", "also write SVG charts into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	events := flag.String("events", "", "stream telemetry events of every PaMO run as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address while running")
	jsonOut := flag.String("json", "", "write a machine-readable run report (figure wall times + per-phase breakdown) to this file")
	strict := flag.Bool("strict", false, "run every PaMO invocation under the exact invariant checker in strict mode: feasibility or GP-guard violations abort the figure")
	flag.Parse()
	if !slices.Contains(figures, *fig) {
		fmt.Fprintf(os.Stderr, "unknown -fig %q; valid: %s\n", *fig, strings.Join(figures, " "))
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	writeChart := func(name string, c *plot.Chart) {
		if *svg == "" || c == nil {
			return
		}
		if err := exp.WriteChart(*svg, name, c); err != nil {
			fmt.Fprintf(os.Stderr, "svg %s: %v\n", name, err)
		}
	}

	// The recorder (if any) is shared by every figure's PaMO runs, so the
	// phase breakdown in -json / -events covers the whole invocation.
	var rec *obs.Recorder
	var eventsFile *os.File
	if *events != "" || *metricsAddr != "" || *jsonOut != "" {
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "events: %v\n", err)
				os.Exit(1)
			}
			eventsFile = f
			rec = obs.NewRecorder(f)
		} else {
			rec = obs.NewRecorder(nil) // aggregate-only: spans feed -json
		}
		if *metricsAddr != "" {
			addr, err := rec.Registry().Serve(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
		}
	}

	var po pamo.Options
	if *fast {
		po = exp.FastOptions()
	}
	po.Obs = rec
	if *strict || rec != nil {
		po.Check = check.New(*strict, rec)
	}

	w := os.Stdout
	start := time.Now()
	type figTime struct {
		Figure  string  `json:"figure"`
		Seconds float64 `json:"seconds"`
		// Heap traffic of the figure (deltas of runtime.MemStats across the
		// run): how many objects and bytes it allocated, not what it
		// retained. The fleet-scale work made these first-class numbers.
		AllocObjects uint64 `json:"alloc_objects"`
		AllocBytes   uint64 `json:"alloc_bytes"`
	}
	var figTimes []figTime
	var ms0, ms1 runtime.MemStats
	run := func(name string, f func()) {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		figTimes = append(figTimes, figTime{
			Figure: name, Seconds: d.Seconds(),
			AllocObjects: ms1.Mallocs - ms0.Mallocs,
			AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		})
		fmt.Fprintf(w, "[%s done in %v]\n", name, d.Round(time.Millisecond))
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("2") {
		run("fig2", func() { exp.Fig2(w, *seed) })
	}
	if want("3") {
		run("fig3", func() {
			exp.Fig3(w)
			writeChart("fig3", exp.Fig3Chart())
		})
	}
	if want("4") {
		run("fig4", func() { exp.Fig4(w) })
	}
	var rows6 []exp.Fig6Row
	var rows7 []exp.Fig7Row
	if want("6") {
		run("fig6", func() {
			rows6 = exp.Fig6(w, exp.Fig6Config{Reps: *reps, Seed: *seed, PaMOOpt: po})
		})
	}
	if want("7") {
		run("fig7", func() {
			rows7 = exp.Fig7(w, exp.Fig7Config{Reps: *reps, Seed: *seed, PaMOOpt: po})
		})
	}
	if len(rows6)+len(rows7) > 0 {
		exp.Headline(w, rows6, rows7)
		for i, c := range exp.Fig6Charts(rows6) {
			writeChart(fmt.Sprintf("fig6_%d", i), c)
		}
		for i, c := range exp.Fig7Charts(rows7) {
			writeChart(fmt.Sprintf("fig7_%d", i), c)
		}
	}
	if want("8") {
		run("fig8", func() {
			writeChart("fig8", exp.Fig8Chart(exp.Fig8(w, exp.Fig8Config{Reps: *reps, Seed: *seed})))
		})
	}
	if want("9") {
		run("fig9", func() {
			writeChart("fig9", exp.Fig9Chart(exp.Fig9(w, exp.Fig9Config{Reps: *reps, Seed: *seed})))
		})
	}
	if want("10a") {
		run("fig10a", func() {
			writeChart("fig10a", exp.Fig10aChart(exp.Fig10a(w, exp.Fig10aConfig{Seed: *seed, PaMOOpt: po})))
		})
	}
	if want("10b") {
		run("fig10b", func() {
			writeChart("fig10b", exp.Fig10bChart(exp.Fig10b(w, exp.Fig10bConfig{Seed: *seed, PaMOOpt: po})))
		})
	}
	if want("ablation") {
		run("ablation", func() {
			exp.AblationAcq(w, exp.AblationAcqConfig{Reps: *reps, Seed: *seed, PaMOOpt: po})
			exp.AblationAcq(w, exp.AblationAcqConfig{Reps: *reps, Noise: 0.1, Seed: *seed, PaMOOpt: po})
			exp.AblationEUBO(w, nil, *reps, *seed)
			exp.AblationZeroJitter(w, 8, 5, *seed)
			exp.AblationHungarian(w, 8, 5, *seed)
		})
	}
	if want("pricing") {
		run("pricing", func() {
			exp.Pricing(w, exp.PricingConfig{Reps: *reps, Seed: *seed, PaMOOpt: po})
		})
	}
	if want("feasibility") {
		run("feasibility", func() {
			exp.Feasibility(w, exp.FeasibilityConfig{Seed: *seed})
		})
	}
	if want("noise") {
		run("noise", func() {
			writeChart("noise", exp.NoiseChart(exp.NoiseSensitivity(w, exp.NoiseConfig{Reps: *reps, Seed: *seed, PaMOOpt: po})))
		})
	}
	total := time.Since(start)
	fmt.Fprintf(w, "\ntotal: %v\n", total.Round(time.Millisecond))

	if rec != nil {
		if *jsonOut != "" {
			writeReport(*jsonOut, *fig, *seed, *fast, total, figTimes, rec)
		}
		if err := rec.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "events: %v\n", err)
			os.Exit(1)
		}
		if eventsFile != nil {
			if err := eventsFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "events: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// phaseEntry is one row of the report's per-phase breakdown, derived from
// the recorder's span aggregates across every PaMO run of the invocation.
type phaseEntry struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	MeanS   float64 `json:"mean_s"`
	MinS    float64 `json:"min_s"`
	MaxS    float64 `json:"max_s"`
	P50S    float64 `json:"p50_s"`
	P95S    float64 `json:"p95_s"`
	P99S    float64 `json:"p99_s"`
	PctWall float64 `json:"pct_wall"`
}

func writeReport(path, fig string, seed uint64, fast bool, total time.Duration, figTimes any, rec *obs.Recorder) {
	spans := rec.SpanSummary()
	// Quantiles come from the recorder's per-span duration histograms;
	// an empty histogram yields NaN, which JSON cannot carry — report 0.
	quant := func(name string, q float64) float64 {
		v := rec.SpanHistogram(name).Quantile(q)
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	phases := make([]phaseEntry, 0, len(spans))
	for _, st := range spans {
		pct := 0.0
		if total > 0 {
			pct = 100 * st.Total / total.Seconds()
		}
		phases = append(phases, phaseEntry{
			Span: st.Name, Count: st.Count, TotalS: st.Total,
			MeanS: st.Mean(), MinS: st.Min, MaxS: st.Max,
			P50S: quant(st.Name, 0.50), P95S: quant(st.Name, 0.95), P99S: quant(st.Name, 0.99),
			PctWall: pct,
		})
	}
	report := map[string]any{
		"command":       "pamo-bench",
		"fig":           fig,
		"seed":          seed,
		"fast":          fast,
		"total_seconds": total.Seconds(),
		"figures":       figTimes,
		"phases":        phases,
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
}
