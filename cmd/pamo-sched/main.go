// Command pamo-sched makes one scheduling decision end to end: it builds a
// simulated EVA system (or loads one from a recorded trace), runs the
// selected scheduler (pamo, pamo+, jcab, fact, fixed) once, and prints the
// decision and its measured outcomes as JSON.
//
// With -trace, the system comes from a trace recorded by pamo-trace
// -record and PaMO's profiling replays the recorded measurements. The
// online control loop over many epochs is pamo-controller's job.
//
// Usage:
//
//	pamo-sched -videos 8 -servers 5 -method pamo -seed 7
//	pamo-sched -method jcab -weights 1,2,1,1,0.5
//	pamo-sched -method pamo -trace trace.json -fast -events run.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/eva"
	"repro/internal/exp"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/trace"
)

type output struct {
	Method     string             `json:"method"`
	Videos     int                `json:"videos"`
	Servers    int                `json:"servers"`
	Configs    []configJSON       `json:"configs"`
	Assignment []int              `json:"assignment"`
	Outcomes   map[string]float64 `json:"outcomes"`
	Benefit    float64            `json:"benefit"`
	MaxJitter  float64            `json:"max_jitter_s"`

	// PaMO's BO iterations and posterior-sampling mean fallbacks, read from
	// the metric registry (0 for the baselines).
	Iterations   uint64 `json:"iterations"`
	MVNFallbacks uint64 `json:"mvn_fallbacks"`
}

type configJSON struct {
	Video      string  `json:"video"`
	Resolution float64 `json:"resolution"`
	FPS        float64 `json:"fps"`
}

func main() {
	videos := flag.Int("videos", 8, "number of video sources")
	servers := flag.Int("servers", 5, "number of edge servers")
	method := flag.String("method", "pamo", exp.Methods)
	seed := flag.Uint64("seed", 1, "random seed")
	weights := flag.String("weights", "1,1,1,1,1", "true preference weights: latency,accuracy,network,compute,energy")
	tracePath := flag.String("trace", "", "load the system from this recorded trace and replay its profiles (replaces -videos/-servers)")
	fast := flag.Bool("fast", false, "shrink PaMO budgets for a quick pass")
	events := flag.String("events", "", "stream telemetry of the run as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address while running")
	strict := flag.Bool("strict", false, "run the exact invariant checker in strict mode: any feasibility, GP-guard, or zero-jitter violation aborts with a non-zero exit")
	flag.Parse()

	truth, err := objective.ParseWeights(*weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weights: %v\n", err)
		os.Exit(2)
	}

	var sink io.Writer
	var eventsFile *os.File
	if *events != "" {
		eventsFile, err = os.Create(*events)
		fatalIf(err)
		sink = eventsFile
	}
	rec := obs.NewRecorder(sink)
	if *metricsAddr != "" {
		addr, err := rec.Registry().Serve(*metricsAddr)
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
	}
	chk := check.New(*strict, rec)

	var opt pamo.Options
	if *fast {
		opt = exp.FastOptions()
	}
	opt.Seed, opt.Obs, opt.Check = *seed, rec, chk

	var sys *objective.System
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		fatalIf(err)
		tr, err := trace.Load(f)
		f.Close()
		fatalIf(err)
		sys = tr.System()
		opt.Measurer = trace.NewReplayer(tr)
	} else {
		sys = exp.NewSystem(*videos, *servers, *seed)
	}

	sched, err := exp.Scheduler(*method, truth, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dec, err := sched.Decide(context.Background(), sys, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", *method, err)
		os.Exit(1)
	}
	// Audit the final decision under its planned costs (strict-capable) and
	// its simulated jitter under the true costs (model error: relaxed).
	if err := chk.VerifyDecisionServers(dec, sys.Servers); err != nil {
		fmt.Fprintf(os.Stderr, "strict check: %v\n", err)
		os.Exit(1)
	}

	out := eva.Evaluate(sys, dec)
	snap := rec.Registry().Snapshot()
	o := output{
		Method:       *method,
		Videos:       sys.M(),
		Servers:      sys.N(),
		Assignment:   dec.Assign,
		Outcomes:     map[string]float64{},
		Benefit:      truth.Benefit(objective.NewNormalizer(sys).Normalize(out)),
		MaxJitter:    eva.MaxJitter(sys, dec),
		Iterations:   snap.Counters["pamo_iterations_total"],
		MVNFallbacks: uint64(snap.Gauges["pamo_mvn_fallbacks"]),
	}
	_ = chk.Relaxed().ObserveJitter(o.MaxJitter, dec.ZeroJit)
	for i, cfg := range dec.Configs {
		o.Configs = append(o.Configs, configJSON{
			Video: sys.Clips[i].Name, Resolution: cfg.Resolution, FPS: cfg.FPS})
	}
	for k := 0; k < objective.K; k++ {
		o.Outcomes[objective.Names[k]] = out[k]
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	fatalIf(enc.Encode(o))
	fatalIf(rec.Close())
	if eventsFile != nil {
		fatalIf(eventsFile.Close())
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
