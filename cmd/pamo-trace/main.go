// Command pamo-trace records and replays profiling traces.
//
//	pamo-trace -record -videos 8 -servers 5 -per-cfg 3 -o trace.json
//	pamo-trace -summary -i trace.json
//	pamo-trace -run -i trace.json        # run PaMO off the recorded trace
//	pamo-trace -run -i trace.json -events run.jsonl
//	pamo-trace -run -i trace.json -faults scenario.json -epochs 10 -fast
//	pamo-trace -run -i trace.json -faults scenario.json -perfetto run.trace.json
//	pamo-trace -events-summary -events run.jsonl
//
// With -events, the -run mode streams every telemetry span and event of
// the PaMO run (phase timings, per-iteration acquisition scores, MVN
// fallbacks) as JSON Lines; -events-summary aggregates such a file into a
// per-phase latency table. -perfetto exports the run's span tree as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing, and a fault
// run additionally prints the per-epoch benefit-attribution ledger.
// -metrics-addr serves the live metric registry in Prometheus text format
// while the run executes.
//
// With -faults, -run drives the online controller for -epochs epochs under
// the scripted fault scenario instead of a single offline optimization,
// still profiling from the recorded trace.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/runtime"

	"repro/internal/eva"
	"repro/internal/exp"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/videosim"
)

func main() {
	record := flag.Bool("record", false, "record a new trace")
	summary := flag.Bool("summary", false, "print a trace summary")
	runPamo := flag.Bool("run", false, "run PaMO with profiling replayed from the trace")
	eventsSummary := flag.Bool("events-summary", false, "aggregate a JSONL event file (-events) into a per-span latency table")
	videos := flag.Int("videos", 8, "videos to record")
	servers := flag.Int("servers", 5, "servers to record")
	perCfg := flag.Int("per-cfg", 3, "measurements per configuration")
	seed := flag.Uint64("seed", 2024, "seed")
	fast := flag.Bool("fast", false, "shrink PaMO budgets for a quick -run pass")
	faults := flag.String("faults", "", "fault scenario JSON: -run drives the online controller under injected failures")
	epochs := flag.Int("epochs", 10, "epochs to run with -faults")
	in := flag.String("i", "trace.json", "input trace path")
	out := flag.String("o", "trace.json", "output trace path")
	events := flag.String("events", "", "JSONL telemetry path: written by -run, read by -events-summary")
	perfetto := flag.String("perfetto", "", "write the -run's span tree as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address during -run")
	strict := flag.Bool("strict", false, "run the exact invariant checker in strict mode during -run: any feasibility or GP-guard violation aborts with a non-zero exit")
	flag.Parse()

	switch {
	case *record:
		sys := exp.NewSystem(*videos, *servers, *seed)
		prof := videosim.NewProfiler(0.02, stats.NewRNG(*seed+1))
		tr := trace.Record(sys, prof, *perCfg)
		f, err := os.Create(*out)
		fatalIf(err)
		defer f.Close()
		fatalIf(tr.Save(f))
		fmt.Printf("recorded %d samples (%d clips × %d configs × %d reps) to %s\n",
			len(tr.Samples), len(tr.Clips),
			len(videosim.Resolutions)*len(videosim.FrameRates), *perCfg, *out)

	case *summary:
		tr := load(*in)
		fmt.Printf("trace v%d: %d clips, %d servers, %d samples\n",
			tr.Version, len(tr.Clips), len(tr.Uplinks), len(tr.Samples))
		for _, c := range tr.Clips {
			fmt.Printf("  %-10s acc=%.2f compute=%.2f bits=%.2f energy=%.2f\n",
				c.Name, c.AccFactor, c.ComputeFac, c.BitFac, c.EnergyFac)
		}

	case *eventsSummary:
		if *events == "" {
			fatalIf(fmt.Errorf("-events-summary requires -events <file.jsonl>"))
		}
		f, err := os.Open(*events)
		fatalIf(err)
		defer f.Close()
		evs, err := obs.ReadEvents(f)
		fatalIf(err)
		fmt.Printf("%d events in %s\n", len(evs), *events)
		obs.WriteSpanTable(os.Stdout, obs.SummarizeSpans(evs))

	case *runPamo:
		tr := load(*in)
		sys := tr.System()
		rec, closeRec := newRecorder(*events, *metricsAddr, *perfetto)
		defer closeRec()
		var chk *check.Checker
		if *strict || rec != nil {
			chk = check.New(*strict, rec)
		}
		truth := objective.UniformPreference()
		dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(*seed)}
		opt := pamo.Options{
			Seed: *seed, UseEUBO: true, Measurer: trace.NewReplayer(tr), Obs: rec, Check: chk,
		}
		if *fast {
			opt.InitProfiles = 12
			opt.InitObs = 3
			opt.PrefPairs = 10
			opt.PrefPool = 12
			opt.Batch = 2
			opt.MCSamples = 16
			opt.CandPool = 10
			opt.MaxIter = 5
		}
		if *faults != "" {
			runFaulted(sys, truth, dm, opt, *faults, *epochs, rec, chk)
			if rec != nil {
				fmt.Println("\nphase breakdown:")
				obs.WriteSpanTable(os.Stdout, rec.SpanSummary())
				if leds := rec.Ledgers(); len(leds) > 0 {
					fmt.Println("\nbenefit attribution:")
					obs.WriteLedgerTable(os.Stdout, leds)
				}
			}
			return
		}
		res, err := pamo.New(sys, dm, opt).Run()
		fatalIf(err)
		fatalIf(chk.VerifyDecisionServers(res.Best.Decision, sys.Servers))
		outv := eva.Evaluate(sys, res.Best.Decision)
		norm := objective.NewNormalizer(sys)
		fmt.Printf("PaMO on trace: benefit=%.4f iters=%d\n",
			truth.Benefit(norm.Normalize(outv)), res.Iters)
		if res.MVNFallbacks > 0 {
			fmt.Printf("  warning: %d posterior sampling calls fell back to the deterministic mean\n",
				res.MVNFallbacks)
		}
		for i, cfg := range res.Best.Decision.Configs {
			fmt.Printf("  %-10s res=%4.0f fps=%2.0f\n", sys.Clips[i].Name, cfg.Resolution, cfg.FPS)
		}
		if rec != nil {
			fmt.Println("\nphase breakdown:")
			obs.WriteSpanTable(os.Stdout, rec.SpanSummary())
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runFaulted drives the online controller with the PaMO scheduler under a
// scripted fault scenario, profiling from the recorded trace.
func runFaulted(sys *objective.System, truth objective.Preference, dm pref.DecisionMaker,
	opt pamo.Options, scenarioPath string, epochs int, rec *obs.Recorder, chk *check.Checker) {
	sc, err := fault.LoadFile(scenarioPath)
	fatalIf(err)
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	fatalIf(err)
	c := &runtime.Controller{
		Sys:    sys,
		Sched:  &runtime.PaMOScheduler{DM: dm, Opt: opt},
		Truth:  truth,
		Norm:   objective.NewNormalizer(sys),
		Opt:    runtime.Options{ReplanEvery: 5, Check: chk},
		Faults: inj,
		Obs:    rec,
	}
	tr, err := c.Run(context.Background(), epochs)
	fatalIf(err)
	replans, failures, degraded := 0, 0, 0
	for _, r := range tr.Reports {
		if r.Replanned {
			replans++
		}
		if r.ReplanFailed {
			failures++
		}
		if r.Degraded {
			degraded++
		}
	}
	fmt.Printf("PaMO under faults (%s): %d epochs, mean benefit=%.4f, replans=%d, failed=%d, degraded=%d\n",
		sc.Name, len(tr.Reports), tr.MeanBenefit(), replans, failures, degraded)
	for _, r := range tr.Reports {
		if r.FaultEvents > 0 || r.Degraded {
			fmt.Printf("  epoch %2d: healthy=%d faults=%d shed=%v downgraded=%v\n",
				r.Epoch, r.HealthyServers, r.FaultEvents, r.Shed, r.Downgraded)
		}
	}
}

// newRecorder builds the telemetry recorder shared by the run modes: a
// JSONL sink when eventsPath is set, an optional live /metrics endpoint,
// and — when perfettoPath is set — a Chrome trace-event JSON export of the
// run's span tree, written by the returned closer after the recorder
// flushes. The closer is safe to call when rec is nil.
func newRecorder(eventsPath, metricsAddr, perfettoPath string) (*obs.Recorder, func()) {
	if eventsPath == "" && metricsAddr == "" && perfettoPath == "" {
		return nil, func() {}
	}
	var f *os.File
	if eventsPath != "" {
		var err error
		f, err = os.Create(eventsPath)
		fatalIf(err)
	}
	// The Perfetto exporter needs the full event stream after the run; a
	// side buffer keeps it available whether or not JSONL goes to disk.
	var buf *bytes.Buffer
	var sink io.Writer
	switch {
	case f != nil && perfettoPath != "":
		buf = &bytes.Buffer{}
		sink = io.MultiWriter(f, buf)
	case f != nil:
		sink = f
	case perfettoPath != "":
		buf = &bytes.Buffer{}
		sink = buf
	}
	rec := obs.NewRecorder(sink)
	if metricsAddr != "" {
		addr, err := rec.Registry().Serve(metricsAddr)
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
	}
	return rec, func() {
		fatalIf(rec.Close())
		if f != nil {
			fatalIf(f.Close())
		}
		if buf != nil {
			evs, err := obs.ReadEvents(buf)
			fatalIf(err)
			pf, err := os.Create(perfettoPath)
			fatalIf(err)
			fatalIf(obs.WritePerfetto(pf, evs))
			fatalIf(pf.Close())
			fmt.Fprintf(os.Stderr, "perfetto trace: %s (%d events)\n", perfettoPath, len(evs))
		}
	}
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	fatalIf(err)
	defer f.Close()
	tr, err := trace.Load(f)
	fatalIf(err)
	return tr
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
