// Command pamo-controller runs the scheduling control loop: the controller
// owns the decide loop, liveness inference, and stream churn for -epochs
// epochs and prints a run summary as JSON. It is the one multi-epoch
// driver; pamo-sched makes a single offline decision.
//
// Three fleet modes:
//
//   - in-process (neither -hollow nor -addr): servers are evaluated inside
//     the controller and a -faults scenario is injected as oracle health;
//   - real agents: -addr serves the wire API, -agents N waits for N
//     registrations before the run starts, and per-server evaluation is
//     farmed out to agents over HTTP/JSON (see cmd/pamo-agent);
//   - hollow agents: -hollow N runs N in-process agents over a loopback
//     transport (no sockets), which scales to thousands of servers and
//     turns any fault scenario into a chaos script (-chaos kills and
//     restarts the hollow agent processes, so every outage must be
//     inferred from silence).
//
// Over the wire, agents heartbeat by carrying work; a server whose agent
// goes quiet for -missed-beats epochs is inferred down and planned around,
// exactly like an injected crash. -method picks the scheduler; the default
// fixed configuration keeps daemon runs deterministic and fast.
//
// Usage:
//
//	pamo-controller -method fixed -videos 6 -servers 2 -seed 7 -faults sc.json -epochs 8
//	pamo-controller -method pamo -videos 8 -servers 4 -shards 2 -decide-timeout 5s
//	pamo-controller -videos 8 -servers 4 -hollow 4 -epochs 12
//	pamo-controller -videos 16 -servers 64 -hollow 64 -faults sc.json -chaos -missed-beats 1 -strict
//	pamo-controller -videos 6 -servers 3 -hollow 3 -epochs 10 -compare-inprocess
//	pamo-controller -videos 6 -servers 3 -hollow 3 -epochs 24 -churn 0.5 -incremental -strict
//	pamo-controller -addr :7070 -servers 4 -agents 4 -epochs 12
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/ctlplane"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/runtime"
)

// runOutput is the run summary printed as JSON on exit.
type runOutput struct {
	Method             string  `json:"method"`
	Videos             int     `json:"videos"`
	Servers            int     `json:"servers"`
	Epochs             int     `json:"epochs"`
	HollowAgents       int     `json:"hollow_agents"`
	Scenario           string  `json:"scenario,omitempty"`
	Chaos              bool    `json:"chaos"`
	MeanBenefit        float64 `json:"mean_benefit"`
	Replans            int     `json:"replans"`
	ReplanFailures     int     `json:"replan_failures"`
	DegradedEpochs     int     `json:"degraded_epochs"`
	MaxDegradedStreams int     `json:"max_degraded_streams"`
	FaultEvents        int     `json:"fault_events"`
	FinalShed          []int   `json:"final_shed"`
	MinHealthy         int     `json:"min_healthy"`
	FinalHealthy       int     `json:"final_healthy"`

	// Wire-plane counters, straight from the metric registry.
	Results           uint64 `json:"results_total"`
	EvalTimeouts      uint64 `json:"eval_timeouts_total"`
	MarksDown         uint64 `json:"marks_down_total"`
	MarksUp           uint64 `json:"marks_up_total"`
	StaleResults      uint64 `json:"stale_results_total"`
	StaleIncarnations uint64 `json:"stale_incarnations_total"`
	StrictViolations  uint64 `json:"strict_violations"`
	StreamOps         uint64 `json:"stream_ops_total"`
	ChurnOps          uint64 `json:"churn_ops_total"`
	ChurnFast         uint64 `json:"churn_fast_total"`
	ChurnResolve      uint64 `json:"churn_resolve_total"`

	// Set (and gating) only with -compare-inprocess.
	WireMatchesInProcess *bool `json:"wire_matches_inprocess,omitempty"`
}

func main() {
	videos := flag.Int("videos", 8, "number of video sources")
	servers := flag.Int("servers", 4, "number of edge servers")
	seed := flag.Uint64("seed", 1, "random seed (system generation, scheduler, and retry jitter)")
	method := flag.String("method", "fixed", exp.Methods)
	weights := flag.String("weights", "1,1,1,1,1", "true preference weights: latency,accuracy,network,compute,energy")
	epochs := flag.Int("epochs", 12, "control epochs to run")
	replanEvery := flag.Int("replan-every", 5, "replan period in epochs")
	shards := flag.Int("shards", 1, "cells for the sharded decide path (>1 needs a per-cell scheduler: pamo, pamo+ or fixed)")
	decideTimeout := flag.Duration("decide-timeout", 0, "per-attempt scheduler deadline (0 = unbounded)")
	addr := flag.String("addr", "", "serve the wire API on this address for external agents")
	agents := flag.Int("agents", 0, "with -addr: wait for this many agent registrations before running")
	hollow := flag.Int("hollow", 0, "run this many in-process hollow agents over the loopback transport")
	missedBeats := flag.Int("missed-beats", 2, "epochs of silence before a server is inferred down")
	evalTimeout := flag.Duration("eval-timeout", 5*time.Second, "per-server wire evaluation deadline")
	epochInterval := flag.Duration("epoch-interval", 0, "wall-clock pacing between epochs (0 = as fast as possible)")
	faults := flag.String("faults", "", "fault scenario JSON")
	churn := flag.Float64("churn", 0, "mean stream churn events per epoch at the diurnal peak, driven through the wire API (0 = off)")
	churnPeriod := flag.Int("churn-period", 0, "diurnal churn period in epochs (default: the run length)")
	incremental := flag.Bool("incremental", false, "amortized replan fast path: churn epochs admit/evict into the frozen grouping instead of paying a full resolve")
	chaos := flag.Bool("chaos", false, "with -hollow and -faults: act out server events by killing/restarting hollow agents (liveness must be inferred)")
	strict := flag.Bool("strict", false, "strict invariant checker: any install-time violation aborts with a non-zero exit")
	compare := flag.Bool("compare-inprocess", false, "after the wire run, repeat it in-process and fail unless the traces are byte-identical")
	events := flag.String("events", "", "stream telemetry of the run as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) on this address while running")
	flag.Parse()

	truth, err := objective.ParseWeights(*weights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weights: %v\n", err)
		os.Exit(2)
	}
	inProcess := *hollow == 0 && *addr == ""
	if inProcess && (*churn > 0 || *chaos || *compare || *agents > 0) {
		// Churn is posted through the wire API, chaos kills wire agents,
		// an in-process run has no wire trace to compare, and -agents
		// counts registrations that only arrive over -addr.
		fmt.Fprintln(os.Stderr, "-churn, -chaos, -compare-inprocess and -agents need a wire fleet (-hollow N, or -addr plus -agents)")
		os.Exit(2)
	}
	if *chaos && (*hollow == 0 || *faults == "") {
		fmt.Fprintln(os.Stderr, "-chaos needs both -hollow and -faults")
		os.Exit(2)
	}
	if *compare && *chaos {
		// Inferred detection lags a real kill by the missed-beat window, so
		// a chaos run is not byte-comparable to oracle fault injection.
		fmt.Fprintln(os.Stderr, "-compare-inprocess requires oracle health (drop -chaos)")
		os.Exit(2)
	}
	if *compare && (*churn > 0 || *incremental) {
		// The in-process replay has no wire client to re-post churn
		// through, and the fast path's counters are not part of the
		// byte-compared reports anyway.
		fmt.Fprintln(os.Stderr, "-compare-inprocess requires the plain path (drop -churn/-incremental)")
		os.Exit(2)
	}

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
	rec := obs.NewRecorder(sink)
	defer rec.Close()
	if *metricsAddr != "" {
		maddr, err := rec.Registry().Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-addr: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", maddr)
	}

	var sc *fault.Scenario
	if *faults != "" {
		if sc, err = fault.LoadFile(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(1)
		}
	}

	l := loop{
		videos: *videos, servers: *servers, seed: *seed,
		method: *method, truth: truth, strict: *strict,
		opt: runtime.Options{
			ReplanEvery:   *replanEvery,
			Shards:        *shards,
			DecideTimeout: *decideTimeout,
			Incremental:   *incremental,
			BackoffSeed:   *seed,
		},
	}
	rt, err := l.controller(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sys := rt.Sys

	var trace *runtime.Trace
	var churnDriver *ctlplane.ChurnDriver
	if inProcess {
		trace, err = runInProcess(rt, sc, *epochs)
	} else {
		opt := ctlplane.Options{
			MissedBeats:   *missedBeats,
			EvalTimeout:   *evalTimeout,
			EpochInterval: *epochInterval,
			Obs:           rec,
		}
		switch {
		case sc == nil:
			// No faults: liveness inference runs against a quiet fleet.
		case *chaos:
			// Liveness events become real agent kills; only the environment
			// half (stalls, link degradation) is injected. The controller
			// must infer every crash from missed beats.
			_, env := sc.Split()
			inj, err := fault.NewInjector(env, sys.N(), sys.M())
			if err != nil {
				fmt.Fprintf(os.Stderr, "faults: %v\n", err)
				os.Exit(1)
			}
			opt.Env = inj
		default:
			// Oracle mode: the whole scenario is injected, as in-process
			// runs do. Useful for byte-exact cross-checks of the wire plane.
			inj, err := fault.NewInjector(sc, sys.N(), sys.M())
			if err != nil {
				fmt.Fprintf(os.Stderr, "faults: %v\n", err)
				os.Exit(1)
			}
			opt.Env = inj
			opt.OracleHealth = true
		}

		ctl := ctlplane.New(rt, opt)

		if *churn > 0 {
			names := make([]string, sys.M())
			for i, clip := range sys.Clips {
				names[i] = clip.Name
			}
			script := fault.GenerateChurn(fault.ChurnOptions{
				Epochs:       *epochs,
				Initial:      names,
				Rate:         *churn,
				PeriodEpochs: *churnPeriod,
				MaxStreams:   2 * *videos,
				Seed:         *seed,
			})
			// The driver posts through the same HTTP surface external
			// cameras would use; the loopback transport just skips the
			// sockets.
			churnDriver = ctlplane.NewChurnDriver(ctlplane.LoopbackClient(ctl, *seed), script, *seed)
			ctl.OnEpoch(churnDriver.OnEpoch)
		}

		if *hollow > 0 {
			if *hollow != sys.N() {
				fmt.Fprintf(os.Stderr, "-hollow %d must match -servers %d (one agent per server)\n", *hollow, *servers)
				os.Exit(2)
			}
			fleet := ctlplane.NewHollowFleet(ctl, *hollow)
			if *chaos {
				ctl.OnEpoch(ctlplane.NewChaosDriver(fleet, sc).OnEpoch)
			}
			if err := fleet.StartAll(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer fleet.Close()
		}
		if *addr != "" {
			a, srv, err := ctl.Serve(*addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "control plane on http://%s\n", a)
			if *agents > 0 {
				wctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				fmt.Fprintf(os.Stderr, "waiting for %d agents...\n", *agents)
				err := ctl.WaitAgents(wctx, *agents)
				cancel()
				if err != nil {
					fmt.Fprintf(os.Stderr, "waiting for agents: %v\n", err)
					os.Exit(1)
				}
			}
		}

		trace, err = ctl.Run(context.Background(), *epochs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}
	if churnDriver != nil {
		if err := churnDriver.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "churn driver: %v\n", err)
			os.Exit(1)
		}
	}

	snap := rec.Registry().Snapshot()
	out := runOutput{
		Method:       *method,
		Videos:       *videos,
		Servers:      *servers,
		Epochs:       len(trace.Reports),
		HollowAgents: *hollow,
		Chaos:        *chaos,
		MeanBenefit:  trace.MeanBenefit(),
		FinalShed:    []int{},
		MinHealthy:   sys.N(),

		Results:           snap.Counters["ctlplane_results_total"],
		EvalTimeouts:      snap.Counters["ctlplane_eval_timeouts_total"],
		MarksDown:         snap.Counters["ctlplane_marks_down_total"],
		MarksUp:           snap.Counters["ctlplane_marks_up_total"],
		StaleResults:      snap.Counters["ctlplane_stale_results_total"],
		StaleIncarnations: snap.Counters["ctlplane_stale_incarnations_total"],
		StrictViolations:  snap.Counters["check_violations_total"],
		StreamOps:         snap.Counters["ctlplane_stream_ops_total"],
		ChurnOps:          snap.Counters["runtime_churn_ops_total"],
		ChurnFast:         snap.Counters["runtime_churn_fast_total"],
		ChurnResolve:      snap.Counters["runtime_churn_resolve_total"],
	}
	if sc != nil {
		out.Scenario = sc.Name
	}
	for _, r := range trace.Reports {
		if r.Replanned {
			out.Replans++
		}
		if r.ReplanFailed {
			out.ReplanFailures++
		}
		if r.Degraded {
			out.DegradedEpochs++
		}
		if d := len(r.Shed) + len(r.Downgraded); d > out.MaxDegradedStreams {
			out.MaxDegradedStreams = d
		}
		out.FaultEvents += r.FaultEvents
		if r.HealthyServers < out.MinHealthy {
			out.MinHealthy = r.HealthyServers
		}
		out.FinalHealthy = r.HealthyServers
	}
	if n := len(trace.Reports); n > 0 && trace.Reports[n-1].Shed != nil {
		out.FinalShed = trace.Reports[n-1].Shed
	}

	exitCode := 0
	if *compare {
		match, err := compareInProcess(trace, l, sc, *epochs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare-inprocess: %v\n", err)
			os.Exit(1)
		}
		out.WireMatchesInProcess = &match
		if !match {
			fmt.Fprintln(os.Stderr, "wire trace DIVERGED from the in-process run")
			exitCode = 1
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *addr != "" {
		// Linger one poll cycle so external agents parked on long polls see
		// the shutdown response instead of a torn-down listener.
		time.Sleep(1500 * time.Millisecond)
	}
	if exitCode != 0 {
		rec.Close()
		os.Exit(exitCode)
	}
	// Success falls through so the deferred recorder/fleet/server cleanup
	// (and the events file flush) runs.
}

// loop is everything one controller is built from. The -compare-inprocess
// replay builds a second, independent controller from the same value.
type loop struct {
	videos, servers int
	seed            uint64
	method          string
	truth           objective.Preference
	strict          bool
	opt             runtime.Options
}

// controller builds the decide-loop controller the wire plane wraps (or
// that runs alone in-process) on a freshly generated system: exp.NewSystem
// is deterministic in (videos, servers, seed), and a replay must not share
// mutable state with the run it checks. Retry backoff jitter is
// seed-derived so restarted daemons desynchronize.
func (l loop) controller(rec *obs.Recorder) (*runtime.Controller, error) {
	sys := exp.NewSystem(l.videos, l.servers, l.seed)
	chk := check.New(l.strict, rec)
	sched, err := exp.Scheduler(l.method, l.truth, pamo.Options{Seed: l.seed, Obs: rec, Check: chk})
	if err != nil {
		return nil, err
	}
	opt := l.opt
	opt.Check = chk
	return &runtime.Controller{
		Sys:   sys,
		Sched: sched,
		Truth: l.truth,
		Norm:  objective.NewNormalizer(sys),
		Opt:   opt,
		Obs:   rec,
	}, nil
}

// runInProcess runs the loop without the wire: in-process evaluators, and
// the whole fault scenario injected as oracle health.
func runInProcess(rt *runtime.Controller, sc *fault.Scenario, epochs int) (*runtime.Trace, error) {
	if sc != nil {
		inj, err := fault.NewInjector(sc, rt.Sys.N(), rt.Sys.M())
		if err != nil {
			return nil, err
		}
		rt.Faults = inj
	}
	return rt.Run(context.Background(), epochs)
}

// compareInProcess re-runs the identical configuration in-process and
// byte-compares the serialized epoch reports against the wire trace.
func compareInProcess(wire *runtime.Trace, l loop, sc *fault.Scenario, epochs int) (bool, error) {
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	rt, err := l.controller(rec)
	if err != nil {
		return false, err
	}
	ref, err := runInProcess(rt, sc, epochs)
	if err != nil {
		return false, err
	}
	a, err := json.Marshal(wire.Reports)
	if err != nil {
		return false, err
	}
	b, err := json.Marshal(ref.Reports)
	if err != nil {
		return false, err
	}
	return string(a) == string(b), nil
}
