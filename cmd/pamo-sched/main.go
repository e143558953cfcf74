// Command pamo-sched runs one scheduling decision end to end: it builds a
// simulated EVA system, runs the selected scheduler (pamo, pamo+, jcab,
// fact, fixed), and prints the decision and its measured outcomes as JSON.
//
// With -faults it instead drives the online controller for -epochs epochs
// under the scripted fault scenario (server crashes, camera stalls, link
// degradation), printing a run summary that records replans, degraded
// epochs, and shed streams.
//
// Usage:
//
//	pamo-sched -videos 8 -servers 5 -method pamo -seed 7
//	pamo-sched -method jcab -weights 1,2,1,1,0.5
//	pamo-sched -method fixed -videos 6 -servers 2 -faults scenario.json -epochs 8
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/check"
	"repro/internal/eva"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/videosim"
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
}

type configJSON struct {
	Video      string  `json:"video"`
	Resolution float64 `json:"resolution"`
	FPS        float64 `json:"fps"`
}

// faultRunOutput summarizes a controller run under fault injection.
type faultRunOutput struct {
	Method             string  `json:"method"`
	Videos             int     `json:"videos"`
	Servers            int     `json:"servers"`
	Epochs             int     `json:"epochs"`
	Scenario           string  `json:"scenario"`
	MeanBenefit        float64 `json:"mean_benefit"`
	Replans            int     `json:"replans"`
	ReplanFailures     int     `json:"replan_failures"`
	DegradedEpochs     int     `json:"degraded_epochs"`
	MaxDegradedStreams int     `json:"max_degraded_streams"`
	FaultEvents        int     `json:"fault_events"`
	FinalShed          []int   `json:"final_shed"`
}

func main() {
	videos := flag.Int("videos", 8, "number of video sources")
	servers := flag.Int("servers", 5, "number of edge servers")
	method := flag.String("method", "pamo", "pamo | pamo+ | jcab | fact | fixed")
	seed := flag.Uint64("seed", 1, "random seed")
	weights := flag.String("weights", "1,1,1,1,1", "true preference weights: latency,accuracy,network,compute,energy")
	events := flag.String("events", "", "stream telemetry of the run as JSONL to this file")
	perfetto := flag.String("perfetto", "", "write the run's span tree as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address while running")
	faults := flag.String("faults", "", "fault scenario JSON: drive the online controller under injected failures")
	epochs := flag.Int("epochs", 12, "epochs to run with -faults")
	replanEvery := flag.Int("replan-every", 5, "replan period in epochs with -faults")
	shards := flag.Int("shards", 1, "cells for the sharded decide path with -faults (>1 needs a per-cell scheduler: fixed)")
	decideTimeout := flag.Duration("decide-timeout", 0, "per-attempt scheduler deadline with -faults (0 = unbounded)")
	strict := flag.Bool("strict", false, "run the exact invariant checker in strict mode: any feasibility, GP-guard, or zero-jitter violation aborts with a non-zero exit")
	flag.Parse()

	var rec *obs.Recorder
	if *events != "" || *metricsAddr != "" || *perfetto != "" {
		var sink io.Writer
		if *events != "" {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "events: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = f
		}
		// The Perfetto exporter replays the full event stream once the run
		// is over; a side buffer keeps it available whether or not the JSONL
		// also goes to disk.
		var buf *bytes.Buffer
		if *perfetto != "" {
			buf = &bytes.Buffer{}
			if sink != nil {
				sink = io.MultiWriter(sink, buf)
			} else {
				sink = buf
			}
		}
		rec = obs.NewRecorder(sink)
		// Registered before rec.Close so it runs after it: the export needs
		// the flushed, complete stream.
		defer func() {
			if buf == nil {
				return
			}
			evs, err := obs.ReadEvents(buf)
			if err == nil {
				var pf *os.File
				if pf, err = os.Create(*perfetto); err == nil {
					err = obs.WritePerfetto(pf, evs)
					if cerr := pf.Close(); err == nil {
						err = cerr
					}
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfetto: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "perfetto trace: %s (%d events)\n", *perfetto, len(evs))
		}()
		defer rec.Close()
		if *metricsAddr != "" {
			addr, err := rec.Registry().Serve(*metricsAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", addr)
		}
	}

	// The checker runs whenever it has somewhere to report: strict mode
	// turns violations into hard errors, while a telemetry run gets the
	// check_* metrics for free.
	var chk *check.Checker
	if *strict || rec != nil {
		chk = check.New(*strict, rec)
	}

	truth := objective.UniformPreference()
	for i, part := range strings.Split(*weights, ",") {
		if i >= objective.K {
			break
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad weight %q: %v\n", part, err)
			os.Exit(1)
		}
		truth.W[i] = v
	}

	sys := exp.NewSystem(*videos, *servers, *seed)
	norm := objective.NewNormalizer(sys)

	if *faults != "" {
		runFaulted(sys, truth, rec, chk, *method, *faults, *epochs, *replanEvery, *shards, *decideTimeout, *seed, *videos, *servers)
		return
	}

	var dec eva.Decision
	var err error
	switch *method {
	case "pamo":
		dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(*seed)}
		var res *pamo.Result
		res, err = pamo.New(sys, dm, pamo.Options{Seed: *seed, UseEUBO: true, Obs: rec, Check: chk}).Run()
		if err == nil {
			dec = res.Best.Decision
		}
	case "pamo+":
		var res *pamo.Result
		res, err = pamo.New(sys, nil, pamo.Options{Seed: *seed, UseTruePref: true, TruePref: truth, Obs: rec, Check: chk}).Run()
		if err == nil {
			dec = res.Best.Decision
		}
	case "jcab":
		dec, err = baselines.JCAB(context.Background(), sys, baselines.JCABOptions{
			WAcc: truth.W[objective.Accuracy], WEng: truth.W[objective.Energy], Seed: *seed})
	case "fact":
		dec, err = baselines.FACT(context.Background(), sys, baselines.FACTOptions{
			WLat: truth.W[objective.Latency], WAcc: truth.W[objective.Accuracy], Seed: *seed})
	case "fixed":
		dec, err = fixedScheduler().Decide(context.Background(), sys, 0)
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(1)
	}
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
	nv := norm.Normalize(out)
	o := output{
		Method:     *method,
		Videos:     *videos,
		Servers:    *servers,
		Assignment: dec.Assign,
		Outcomes:   map[string]float64{},
		Benefit:    truth.Benefit(nv),
		MaxJitter:  eva.MaxJitter(sys, dec),
	}
	_ = chk.Relaxed().ObserveJitter(o.MaxJitter, dec.ZeroJit)
	for i, cfg := range dec.Configs {
		o.Configs = append(o.Configs, configJSON{
			Video: sys.Clips[i].Name, Resolution: cfg.Resolution, FPS: cfg.FPS})
	}
	for k := 0; k < objective.K; k++ {
		o.Outcomes[objective.Names[k]] = out[k]
	}
	emit(o)
}

func fixedScheduler() *runtime.FixedScheduler {
	return &runtime.FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}
}

// schedulerFor builds the controller scheduler for -faults mode.
func schedulerFor(method string, truth objective.Preference, rec *obs.Recorder, chk *check.Checker, seed uint64) (runtime.Scheduler, error) {
	switch method {
	case "pamo":
		return &runtime.PaMOScheduler{
			DM:  &pref.Oracle{Pref: truth, Rng: stats.NewRNG(seed)},
			Opt: pamo.Options{Seed: seed, Obs: rec, Check: chk},
		}, nil
	case "pamo+":
		return &runtime.PaMOScheduler{
			Opt: pamo.Options{Seed: seed, UseTruePref: true, TruePref: truth, Obs: rec, Check: chk},
		}, nil
	case "jcab":
		return runtime.SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
			return baselines.JCAB(ctx, s, baselines.JCABOptions{
				WAcc: truth.W[objective.Accuracy], WEng: truth.W[objective.Energy], Seed: seed + uint64(epoch)})
		}), nil
	case "fact":
		return runtime.SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
			return baselines.FACT(ctx, s, baselines.FACTOptions{
				WLat: truth.W[objective.Latency], WAcc: truth.W[objective.Accuracy], Seed: seed + uint64(epoch)})
		}), nil
	case "fixed":
		return fixedScheduler(), nil
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func runFaulted(sys *objective.System, truth objective.Preference, rec *obs.Recorder, chk *check.Checker,
	method, scenarioPath string, epochs, replanEvery, shards int, decideTimeout time.Duration,
	seed uint64, videos, servers int) {
	sc, err := fault.LoadFile(scenarioPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faults: %v\n", err)
		os.Exit(1)
	}
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	if err != nil {
		fmt.Fprintf(os.Stderr, "faults: %v\n", err)
		os.Exit(1)
	}
	sched, err := schedulerFor(method, truth, rec, chk, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c := &runtime.Controller{
		Sys:    sys,
		Sched:  sched,
		Truth:  truth,
		Norm:   objective.NewNormalizer(sys),
		Opt:    runtime.Options{ReplanEvery: replanEvery, DecideTimeout: decideTimeout, Shards: shards, Check: chk},
		Faults: inj,
		Obs:    rec,
	}
	trace, err := c.Run(context.Background(), epochs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}
	o := faultRunOutput{
		Method:      method,
		Videos:      videos,
		Servers:     servers,
		Epochs:      len(trace.Reports),
		Scenario:    sc.Name,
		MeanBenefit: trace.MeanBenefit(),
		FinalShed:   []int{},
	}
	for _, r := range trace.Reports {
		if r.Replanned {
			o.Replans++
		}
		if r.ReplanFailed {
			o.ReplanFailures++
		}
		if r.Degraded {
			o.DegradedEpochs++
		}
		if d := len(r.Shed) + len(r.Downgraded); d > o.MaxDegradedStreams {
			o.MaxDegradedStreams = d
		}
		o.FaultEvents += r.FaultEvents
	}
	if len(trace.Reports) > 0 {
		if last := trace.Reports[len(trace.Reports)-1]; last.Shed != nil {
			o.FinalShed = last.Shed
		}
	}
	emit(o)
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
