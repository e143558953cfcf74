package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/ctlplane"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// workload is one traffic shape. A workload is run as a sequence of "days":
// one day is Epochs back-to-back epochs of a freshly built control loop
// whose inputs all derive from the day's seed. Workloads set deployment
// shape only; every fast-path toggle of runtime.Options and pamo.Options is
// left at its zero value (see README "Options policy").
type workload struct {
	Name    string
	Streams int // at epoch 0
	Servers int
	Epochs  int // per day
	// Days is how many different days, their seeds derived from --seed, one
	// run cycles through. Pooling several days steadies the metrics against
	// the luck of one script; repeating a day checks that it is reproducible.
	// Workloads whose days are short afford more of them.
	Days int
	// BudgetMS is the epoch deadline: an epoch slower than this misses it.
	// Fixed once at 1.5× the seed code's replan_p95_ms on the 2-core
	// reference host (README "Baseline"), two significant figures, and never
	// changed.
	BudgetMS float64
	// Audit retains the scheduler's decisions for the bench-side exact
	// feasibility audit; the other workloads run the strict checker in the
	// loop, where a violation aborts the day and counts as failed epochs.
	Audit bool
	build func(w *workload, seed uint64, epochs int, tr *tracer) (*day, error)
}

// day is one built control loop, ready to run.
type day struct {
	run   func(ctx context.Context, epochs int) (*runtime.Trace, error)
	close func()
	tick  *tickSource
	sched *timedScheduler
	// replay, when set, runs the same script without the wire and returns
	// the trace the wire run must reproduce bit for bit.
	replay func(epochs int) (*runtime.Trace, error)
}

var workloads = []*workload{
	{Name: "churn_day", Streams: 8, Servers: 10, Epochs: 192, Days: 16, BudgetMS: 27, Audit: true, build: buildChurnDay},
	{Name: "dense_day", Streams: 5, Servers: 4, Epochs: 24, Days: 11, BudgetMS: 130, Audit: true, build: buildDenseDay},
	{Name: "fleet_place", Streams: 512, Servers: 64, Epochs: 160, Days: 12, BudgetMS: 28, build: buildFleetPlace},
	{Name: "wire_day", Streams: 64, Servers: 8, Epochs: 1000, Days: 8, BudgetMS: 3.8, build: buildWireDay},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// churnSpeeds are dyadic, so the speed-scaled Const2 arithmetic stays exact.
var churnSpeeds = []float64{1, 1.5, 0.75, 2, 1.25}

var truth = objective.UniformPreference()

func clipNames(sys *objective.System) []string {
	names := make([]string, len(sys.Clips))
	for i, c := range sys.Clips {
		names[i] = c.Name
	}
	return names
}

// pamoController assembles the in-process PaMO loop both BO workloads use.
func pamoController(w *workload, sys *objective.System, popt pamo.Options, ropt runtime.Options, ops runtime.OpSource, faults *fault.Injector, tr *tracer) *day {
	popt.Obs = tr.recorder()
	ts := &timedScheduler{
		inner: &runtime.PaMOScheduler{DM: &pref.Oracle{Pref: truth}, Opt: popt},
		log:   tr.spans(), cap: tr.capture(), keep: w.Audit,
	}
	tick := &tickSource{inner: ops, log: tr.spans()}
	rt := &runtime.Controller{
		Sys: sys, Sched: ts, Truth: truth, Norm: objective.NewNormalizer(sys),
		Opt: ropt, Faults: faults, Ops: tick, Obs: tr.recorder(),
	}
	return &day{run: rt.Run, close: func() {}, tick: tick, sched: ts}
}

// buildChurnDay is the capstone day: diurnal stream churn, server crashes
// and link degradation, content drift, heterogeneous server speeds, PaMO
// with a small BO budget. Replans are many and small (n = 12 profiles per
// clip), so replan machinery and churn handling dominate, not GP algebra.
func buildChurnDay(w *workload, seed uint64, epochs int, tr *tracer) (*day, error) {
	sys := exp.NewSystem(w.Streams, w.Servers, seed)
	for j := range sys.Servers {
		sys.Servers[j].SpeedFactor = churnSpeeds[j%len(churnSpeeds)]
	}
	script := fault.GenerateChurn(fault.ChurnOptions{
		Epochs: epochs, Initial: clipNames(sys), Rate: 0.5, PeriodEpochs: 96,
		MinStreams: w.Streams - w.Streams/4, MaxStreams: w.Streams + w.Streams/4, Seed: seed,
	})
	// Cameras 0: no camera stalls, whose indices would shift under churn.
	sc := fault.Generate(fault.GenOptions{
		Epochs: epochs, Servers: w.Servers, Cameras: 0, Seed: seed,
		CrashProb: 0.002, DegradeProb: 0.002,
	})
	inj, err := fault.NewInjector(sc, w.Servers, 0)
	if err != nil {
		return nil, err
	}
	popt := pamo.Options{
		InitProfiles: 12, InitObs: 3, PrefPairs: 8, PrefPool: 10,
		Batch: 2, MCSamples: 12, CandPool: 8, MaxIter: 3, Seed: seed,
	}
	ropt := runtime.Options{ReplanEvery: 8, Shards: 1}
	return pamoController(w, sys, popt, ropt, runtime.NewChurnFeed(script, seed), inj, tr), nil
}

// buildDenseDay is the nightly re-solve at many observations: a stationary
// fleet that replans every epoch with 120 profiles per clip, so mat, kernel,
// gp, acq and prefgp do almost all the work and sched almost none.
func buildDenseDay(w *workload, seed uint64, epochs int, tr *tracer) (*day, error) {
	sys := exp.NewSystem(w.Streams, w.Servers, seed)
	popt := pamo.Options{
		InitProfiles: 120, InitObs: 3, PrefPairs: 8, PrefPool: 10,
		Batch: 2, MCSamples: 16, CandPool: 12, MaxIter: 5, Seed: seed,
	}
	ropt := runtime.Options{ReplanEvery: 1, Shards: 1}
	return pamoController(w, sys, popt, ropt, nil, nil, tr), nil
}

// fixedCfg is feasible at the fleet's density; 750/10 is not, and sends
// every epoch down the degradation path.
var fixedCfg = videosim.Config{Resolution: 500, FPS: 5}

// buildFleetPlace is zero-BO placement at scale: one large sharded solve
// per replan under the in-loop exact checker, faults forcing replans.
func buildFleetPlace(w *workload, seed uint64, epochs int, tr *tracer) (*day, error) {
	sys := wideSystem(w, seed)
	sc := fault.Generate(fault.GenOptions{
		Epochs: epochs, Servers: w.Servers, Cameras: w.Streams, Seed: seed,
		CrashProb: 0.0008, StallProb: 0.0001, DegradeProb: 0.0008,
	})
	inj, err := fault.NewInjector(sc, w.Servers, w.Streams)
	if err != nil {
		return nil, err
	}
	ts := &timedScheduler{inner: &runtime.FixedScheduler{Cfg: fixedCfg}, log: tr.spans(), cap: tr.capture()}
	tick := &tickSource{log: tr.spans()}
	rt := &runtime.Controller{
		Sys: sys, Sched: ts, Truth: truth, Norm: objective.NewNormalizer(sys),
		Opt:    runtime.Options{ReplanEvery: 8, Shards: 4, Check: check.New(true, tr.recorder())},
		Faults: inj, Ops: tick, Obs: tr.recorder(),
	}
	return &day{run: rt.Run, close: func() {}, tick: tick, sched: ts}, nil
}

// wideSystem is the FixedScheduler workloads' cluster: uplinks ×4, so that
// 8 streams per server at the fixed configuration are feasible.
func wideSystem(w *workload, seed uint64) *objective.System {
	sys := exp.NewSystem(w.Streams, w.Servers, seed)
	for j := range sys.Servers {
		sys.Servers[j].Uplink *= 4
	}
	return sys
}

// wireScript is shared by the wire run and its in-process replay, so both
// see the same inputs.
func wireScript(w *workload, sys *objective.System, seed uint64, epochs int) *fault.ChurnScript {
	return fault.GenerateChurn(fault.ChurnOptions{
		Epochs: epochs, Initial: clipNames(sys), Rate: 0.25, PeriodEpochs: epochs / 2,
		MinStreams: w.Streams - w.Streams/8, MaxStreams: w.Streams + w.Streams/8, Seed: seed,
	})
}

func wireRuntime(sys *objective.System, ts runtime.Scheduler, rec *obs.Recorder) *runtime.Controller {
	return &runtime.Controller{
		Sys: sys, Sched: ts, Truth: truth, Norm: objective.NewNormalizer(sys),
		Opt: runtime.Options{ReplanEvery: 4, Shards: 1, Check: check.New(true, rec)},
		Obs: rec,
	}
}

// buildWireDay runs the loop through ctlplane: every server evaluation is a
// JSON dispatch to a hollow agent over the in-memory transport, liveness is
// inferred from beats, and stream churn arrives as wire requests. No agent
// is killed: a dispatch to a dead agent costs one fixed wall-clock
// EvalTimeout, a constant that would swamp the signal.
func buildWireDay(w *workload, seed uint64, epochs int, tr *tracer) (*day, error) {
	sys := wideSystem(w, seed)
	script := wireScript(w, sys, seed, epochs)
	ts := &timedScheduler{inner: &runtime.FixedScheduler{Cfg: fixedCfg}, log: tr.spans(), cap: tr.capture()}
	rt := wireRuntime(sys, ts, tr.recorder())
	ctl := ctlplane.New(rt, ctlplane.Options{MissedBeats: 2})
	tick := &tickSource{inner: ctl, log: tr.spans()}
	rt.Ops = tick
	if tr != nil {
		rt.Eval = &timedEvaluator{inner: ctl, log: tr.log, cap: tr.cap}
	}
	driver := ctlplane.NewChurnDriver(ctlplane.LoopbackClient(ctl, seed), script, seed)
	ctl.OnEpoch(func(epoch int) {
		start := time.Now()
		driver.OnEpoch(epoch)
		tr.spans().add("on_epoch", epoch, start, time.Now())
	})
	fleet := ctlplane.NewHollowFleet(ctl, w.Servers)
	if err := fleet.StartAll(); err != nil {
		fleet.Close()
		return nil, err
	}
	run := func(ctx context.Context, n int) (*runtime.Trace, error) {
		trace, err := ctl.Run(ctx, n)
		if err == nil {
			err = driver.Err()
		}
		return trace, err
	}
	replay := func(n int) (*runtime.Trace, error) {
		rsys := wideSystem(w, seed)
		rrt := wireRuntime(rsys, &runtime.FixedScheduler{Cfg: fixedCfg}, nil)
		rrt.Ops = &wireReplay{script: wireScript(w, rsys, seed, epochs), seed: seed}
		return rrt.Run(context.Background(), n)
	}
	return &day{run: run, close: fleet.Close, tick: tick, sched: ts, replay: replay}, nil
}

// wireReplay feeds a churn script into an in-process loop exactly as
// ctlplane.ChurnDriver lands it over the wire: nothing at epoch 0 (no hook
// has run yet), every op due by epoch e at Drain(e), clips in their wire
// form (no content phase).
type wireReplay struct {
	script *fault.ChurnScript
	seed   uint64
	next   int
}

func (r *wireReplay) Drain(epoch int) []runtime.StreamOp {
	if epoch == 0 {
		return nil
	}
	var ops []runtime.StreamOp
	for r.next < len(r.script.Ops) && r.script.Ops[r.next].Epoch <= epoch {
		op := r.script.Ops[r.next]
		r.next++
		if op.Add {
			ops = append(ops, runtime.StreamOp{Add: ctlplane.ClipSpecOf(runtime.MintClip(op.Name, r.seed)).Clip()})
		} else {
			ops = append(ops, runtime.StreamOp{Remove: op.Name})
		}
	}
	return ops
}

func (w *workload) String() string {
	return fmt.Sprintf("%s (%d streams x %d servers, %d days of %d epochs, budget %g ms)", w.Name, w.Streams, w.Servers, w.Days, w.Epochs, w.BudgetMS)
}
