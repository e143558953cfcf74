// Package runtime is the online control plane of the EVA system (Section
// 2.1's loop made concrete): camera and server agents report status over
// channels, a controller periodically collects it, re-plans through a
// pluggable scheduler every few epochs against the content-drifted system,
// and dispatches new configurations. Epochs are virtual time; all
// concurrency is real.
//
// The controller is fault-tolerant: an optional fault.Injector crashes
// and recovers servers, stalls cameras, and degrades uplinks at epoch
// granularity; topology changes and stream churn force an immediate
// replan, every scheduler call runs under a context deadline with one
// jittered-backoff retry, and when Algorithm 1 turns
// infeasible on the shrunken cluster a degradation policy sheds or
// downgrades streams until a feasible zero-jitter plan exists.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// EpochSeconds is the wall-clock length one epoch represents.
const EpochSeconds = 60.0

// Scheduler produces a decision for the system as it looks at a given
// epoch. Implementations must honour ctx cancellation promptly; the
// controller abandons calls that outlive their deadline.
type Scheduler interface {
	Decide(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error)
}

// MaskAware is an optional Scheduler extension for planners that can
// natively plan onto a subset of the servers. healthy is a per-server
// liveness mask over sys.Servers (nil = all up); the returned decision's
// Assign must use the full physical index space and only healthy servers.
// Schedulers without this extension are given a compacted view of the
// cluster and their assignments are remapped by the controller.
type MaskAware interface {
	Scheduler
	DecideMasked(ctx context.Context, sys *objective.System, healthy []bool, epoch int) (eva.Decision, error)
}

// HealthSource is where the control loop learns the cluster's condition at
// each epoch boundary: Advance applies (or infers) this epoch's topology
// changes and returns them as fault events, State reports the resulting
// cluster view. *fault.Injector satisfies it directly — that is the scripted
// oracle the in-process loop uses — while the distributed control plane
// substitutes heartbeat-inferred liveness (internal/ctlplane), so the same
// replan/degradation machinery runs whether faults are known or deduced.
type HealthSource interface {
	Advance(epoch int) []fault.Event
	State() fault.State
}

// ServerEvalResult is one server's contribution to an epoch evaluation: the
// per-frame latency sum and frame count of its simulated (or measured)
// workload, plus its worst inter-frame jitter. The controller merges these
// exactly as it merges its own in-process DES results, so a remote evaluator
// returning bit-identical numbers yields a bit-identical trace.
type ServerEvalResult struct {
	LatSum    float64
	Frames    int
	MaxJitter float64
}

// ServerEvaluator runs one server's epoch evaluation somewhere else — over
// the wire on an edge agent, in the distributed control plane. The specs
// slice is only valid for the duration of the call; implementations that
// retain it (to serialize later) must copy. An error means the server
// produced no measurement this epoch: the controller records an eval
// failure and scores the server as contributing nothing, the same as a
// crashed server.
type ServerEvaluator interface {
	EvaluateServer(ctx context.Context, epoch, server int, specs []cluster.StreamSpec, srv cluster.Server, horizon float64) (ServerEvalResult, error)
}

// StreamOp is one stream registration or deregistration, applied at an
// epoch boundary before that epoch's replan. Add appends a new video source
// to the system; Remove drops the clip with the given name. Either way the
// controller invalidates the running decision and forces a full replan —
// the decision's per-video shapes no longer match the system.
type StreamOp struct {
	Add    *videosim.Clip
	Remove string
}

// OpSource feeds stream churn into the control loop: Drain is called once
// per epoch, before fault advancement and replanning, and returns the ops
// to apply this epoch. After applying ops the controller rebuilds its
// normalizer with objective.NewNormalizer, so benefit values are comparable
// only within a fixed stream set.
type OpSource interface {
	Drain(epoch int) []StreamOp
}

// SchedulerFunc adapts a function to the Scheduler interface.
type SchedulerFunc func(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error)

// Decide implements Scheduler.
func (f SchedulerFunc) Decide(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error) {
	return f(ctx, sys, epoch)
}

// EpochReport is the controller's record of one epoch.
type EpochReport struct {
	Epoch     int
	Outcome   objective.Vector // measured under the drifted content
	Benefit   float64          // truth-scored benefit (for the trace owner)
	MaxJitter float64
	Replanned bool // a new decision was installed this epoch

	// ReplanFailed marks an epoch whose scheduler invocation errored (after
	// the retry) so the previous decision kept running.
	ReplanFailed bool

	// Fault-tolerance record. Degraded means the installed decision came
	// from the degradation policy; Shed/Downgraded are its victim videos.
	// Stalled lists cameras producing no frames this epoch, HealthyServers
	// counts servers up, FaultEvents counts injected events applied this
	// epoch, DecideAttempts counts scheduler invocations (0 = no replan
	// due), and ServerStreams is the number of live streams per physical
	// server under the running decision.
	Degraded       bool
	Shed           []int
	Downgraded     []int
	Stalled        []int
	HealthyServers int
	FaultEvents    int
	DecideAttempts int
	ServerStreams  []int
}

// Trace is the full run history.
type Trace struct {
	Reports []EpochReport
}

// MeanBenefit returns the average benefit across all epochs.
func (t *Trace) MeanBenefit() float64 {
	if len(t.Reports) == 0 {
		return 0
	}
	var s float64
	for _, r := range t.Reports {
		s += r.Benefit
	}
	return s / float64(len(t.Reports))
}

// Options tunes the controller.
type Options struct {
	ReplanEvery int // re-run the scheduler every k epochs (default 5)
	Workers     int // parallel per-server evaluators (default N; local simulation caps it at GOMAXPROCS)
	// DecideTimeout bounds every individual scheduler invocation
	// (0 = unbounded). When the deadline fires the attempt is abandoned —
	// the call's goroutine is left to finish on its own and its result is
	// discarded — and the retry path takes over, so a hung scheduler
	// cannot stall the control loop.
	DecideTimeout time.Duration
	// BackoffSeed decorrelates the retry-delay jitter of concurrent
	// deciders (see retryBackoff); any per-controller value works (0 is
	// fine for a single controller).
	BackoffSeed uint64
	// Incremental enables the amortized replan fast path: when the running
	// decision is a full-capacity zero-jitter plan, a replan epoch first
	// tries to keep its configurations and grouping and re-solve only the
	// group→server assignment against the drifted costs and surviving
	// servers (sched.Replanner). The fast path is taken only when the exact
	// feasibility conditions still hold; otherwise the scheduler runs as
	// usual. Off by default: incremental plans freeze the configuration
	// search, trading plan optimality for replan latency.
	Incremental bool
	// FullResolveEvery, with Incremental on, forces every k-th epoch's
	// replan to skip the fast path and invoke the scheduler from scratch —
	// a periodic configuration refresh. Incremental replans keep the
	// frozen configurations forever; under stream churn and content drift
	// the frozen choice decays, so long-running deployments alternate
	// cheap incremental epochs with an occasional full re-optimization
	// (which also profiles arrivals admitted on borrowed configurations).
	// 0 disables the refresh.
	FullResolveEvery int
	// Shards > 1 routes replans through the sharded control plane when the
	// scheduler implements CellDecider: videos are partitioned into cells,
	// each cell decides its configurations concurrently, and each cell is
	// placed by Algorithm 1 on its own slice of the servers
	// (internal/shard). The default 1 keeps the serial decide path
	// — and therefore every existing golden trace — byte-exact.
	Shards int
	// Check, when non-nil, audits the control loop: every installed
	// decision — scheduler-produced or degraded — is verified against the
	// exact feasibility constraints under its *planned* processing times
	// (violations are scheduler bugs; under a strict checker they abort the
	// run), while the per-epoch re-evaluation under the drifted true
	// processing times and the simulated jitter are audited through the
	// checker's relaxed view (violations there are model error by design
	// and only surface as check_* metrics).
	Check *check.Checker
}

// Controller drives the online loop.
type Controller struct {
	Sys   *objective.System
	Sched Scheduler
	Truth objective.Preference // scoring preference for the trace
	Norm  objective.Normalizer
	Opt   Options
	// Faults, when non-nil, injects the scripted failures into the loop:
	// decisions are planned around down servers, stalled cameras produce
	// no frames, and degraded links shrink the drifted system's uplinks.
	Faults *fault.Injector
	// Health, when non-nil, replaces Faults as the loop's view of cluster
	// condition. Where Faults is a scripted oracle, Health may be inferred —
	// the distributed control plane plugs in heartbeat-based liveness here —
	// and the loop cannot tell the difference: the same forced-replan and
	// degradation machinery runs either way.
	Health HealthSource
	// Eval, when non-nil, delegates each healthy server's epoch evaluation
	// instead of simulating it in-process: the distributed control plane
	// dispatches the server's stream specs to its edge agent and merges the
	// returned measurements. A nil Eval keeps the in-process DES.
	Eval ServerEvaluator
	// Ops, when non-nil, feeds stream register/deregister churn into the
	// loop at epoch boundaries; any applied op invalidates the running
	// decision and forces a full replan.
	Ops OpSource
	// Obs, when non-nil, receives one "epoch" event per epoch (benefit,
	// jitter, drift magnitude, replan cause), a "replan" span around every
	// scheduler invocation, "fault_*" and "degraded" events, per-server DES
	// utilization/jitter events, and the runtime_*/fault_* metrics of the
	// recorder's registry. Nil disables telemetry at zero cost.
	Obs *obs.Recorder

	// Reusable per-server evaluation state: one simulation arena, one spec
	// buffer and one result slot per physical server, grown lazily by
	// evaluate. Index j is touched only by the worker that took server j
	// within an epoch and epochs are fan-in barriers, so no extra
	// synchronization is needed. The relaxed audit's live streams and
	// assignment are reused the same way (the checker keeps no reference).
	arenas      []*cluster.Arena
	specBufs    [][]cluster.StreamSpec
	results     []serverResult
	evalStreams []sched.Stream
	liveStreams []sched.Stream
	liveAssign  []int
}

// serverResult is what one server's evaluation contributes to the epoch's
// outcome: its latency sum and frame count, and its largest jitter.
type serverResult struct {
	latSum float64
	frames int
	jitter float64
}

// ErrNoDecision is returned when the first scheduling attempt fails — the
// controller cannot run without an initial decision.
var ErrNoDecision = errors.New("runtime: scheduler produced no initial decision")

// Run executes the control loop for the given number of epochs. Each epoch
// the running decision is evaluated against content-drifted clips on a
// pool of per-server workers (fan-out/fan-in, see evaluate); on replan
// epochs the scheduler sees the drifted, fault-masked system. Cancelling
// ctx stops the loop early and returns the partial trace.
func (c *Controller) Run(ctx context.Context, epochs int) (*Trace, error) {
	opt := c.Opt
	if opt.ReplanEvery <= 0 {
		opt.ReplanEvery = 5
	}
	if opt.Workers <= 0 {
		opt.Workers = c.Sys.N()
	}

	reg := c.Obs.Registry()
	epochsTotal := reg.Counter("runtime_epochs_total")
	replansTotal := reg.Counter("runtime_replans_total")
	replansFailed := reg.Counter("runtime_replans_failed_total")
	replansForced := reg.Counter("runtime_replans_forced_total")
	replansIncremental := reg.Counter("runtime_replans_incremental_total")
	degradedEpochs := reg.Counter("runtime_degraded_epochs_total")
	degradedStreams := reg.Gauge("runtime_degraded_streams")
	benefitGauge := reg.Gauge("runtime_benefit")
	driftGauge := reg.Gauge("runtime_drift")
	jitterHist := reg.Histogram("runtime_epoch_jitter_seconds", obs.DefBuckets)
	churnOps := reg.Counter("runtime_churn_ops_total")
	churnEpochs := reg.Counter("runtime_churn_epochs_total")
	churnFast := reg.Counter("runtime_churn_fast_total")
	churnResolve := reg.Counter("runtime_churn_resolve_total")
	faultEventsTotal := reg.Counter("fault_events_total")
	serversDownGauge := reg.Gauge("fault_servers_down")
	camerasStalledGauge := reg.Gauge("fault_cameras_stalled")
	linksDegradedGauge := reg.Gauge("fault_links_degraded")

	n := c.Sys.N()
	trace := &Trace{}
	rp := sched.NewReplanner()
	rp.SetRecorder(c.Obs)
	var current eva.Decision
	haveDecision := false
	for epoch := 0; epoch < epochs; epoch++ {
		select {
		case <-ctx.Done():
			return trace, ctx.Err()
		default:
		}

		// The epoch span roots this epoch's trace: every decide attempt,
		// shard round, cell proposal, replan, and per-server DES run nests
		// under it via the context. Early-return error paths leave it
		// un-emitted, which is fine — an aborted epoch has no duration.
		ectx, esp := c.Obs.StartSpanCtx(ctx, "epoch", obs.F("epoch", float64(epoch)))

		// Stream churn first: register/deregister ops change the system the
		// rest of the epoch (fault masks, replan, evaluation) must see. With
		// the incremental option on, churn tries the admit/evict fast path —
		// departures shrink the frozen grouping, arrivals slot into groups
		// whose exact Const2 budget still holds, and this epoch's replan runs
		// incrementally. Any decline falls back to invalidating the decision
		// (a full resolve), exactly the pre-incremental behaviour.
		churned := false
		churnWarm := false
		if c.Ops != nil {
			if ops := c.Ops.Drain(epoch); len(ops) > 0 {
				churned = true
				churnOps.Add(uint64(len(ops)))
				churnEpochs.Inc()
				removes, adds := splitStreamOps(ops)
				if opt.Incremental && haveDecision {
					mask := c.healthSource().State().Healthy()
					if d, ok := c.churnAdmitEvict(rp, removes, adds, current, mask); ok {
						current = d
						churnWarm = true
					}
				}
				if !churnWarm {
					c.applyCanonicalOps(removes, adds)
					haveDecision = false
					rp.Invalidate()
				}
				n = c.Sys.N()
				c.Obs.EventCtx(ectx, "stream_churn",
					obs.F("epoch", float64(epoch)),
					obs.F("ops", float64(len(ops))),
					obs.F("warm", obs.Bool(churnWarm)),
					obs.F("videos", float64(c.Sys.M())))
			}
		}

		// Apply this epoch's faults — scripted by the injector oracle, or
		// inferred by the health source — and read the cluster state.
		hs := c.healthSource()
		events := hs.Advance(epoch)
		st := hs.State()
		healthy := st.Healthy() // nil = no injector / all up
		stalledCams := st.StalledCameras()
		nHealthy := n
		if healthy != nil {
			nHealthy = st.NumHealthy()
		}
		for _, e := range events {
			faultEventsTotal.Inc()
			c.Obs.EventCtx(ectx, "fault_"+string(e.Action),
				obs.F("epoch", float64(epoch)),
				obs.F("action", fault.ActionCode(e.Action)),
				obs.F("target", float64(e.Target)),
				obs.F("factor", e.Factor))
		}
		if st.Down != nil {
			serversDownGauge.Set(float64(n - nHealthy))
			camerasStalledGauge.Set(float64(len(stalledCams)))
			linksDegradedGauge.Set(countDegradedLinks(st.LinkScale))
		}
		topologyChanged := len(events) > 0

		drifted := c.driftedSystem(epoch)
		applyLinkScales(drifted, st.LinkScale)
		drift := c.driftMagnitude(epoch)

		replanned := false
		replanFailed := false
		degraded := false
		infeasible := false
		attempts := 0
		fellBack := false
		// install makes d the running decision. The incremental fast path,
		// the scheduler and the degradation policy all install through it:
		// the strict audit of the decision's planned costs, the loop state,
		// the counters and the replanner's baseline.
		install := func(d eva.Decision, src decisionSource) error {
			if err := opt.Check.VerifyDecisionServers(d, c.Sys.Servers); err != nil {
				return fmt.Errorf("runtime: epoch %d: %s decision: %w", epoch, src, err)
			}
			current, haveDecision, replanned = d, true, true
			switch src {
			case fromIncremental: // the replanner already holds d as its baseline
				replansTotal.Inc()
				replansIncremental.Inc()
				c.Obs.EventCtx(ectx, "replan_incremental",
					obs.F("epoch", float64(epoch)),
					obs.F("healthy_servers", float64(nHealthy)),
					obs.F("drift", drift))
			case fromScheduler:
				replansTotal.Inc()
				if opt.Incremental {
					adoptIncremental(rp, d, n)
				}
			case fromDegrade:
				degraded = true
				rp.Invalidate() // degraded configs are not an incremental baseline
				degradedEpochs.Inc()
				c.Obs.EventCtx(ectx, "degraded",
					obs.F("epoch", float64(epoch)),
					obs.F("shed", float64(len(d.Shed))),
					obs.F("downgraded", float64(len(d.Downgraded))))
			}
			return nil
		}
		if !haveDecision || epoch%opt.ReplanEvery == 0 || topologyChanged || churned {
			if topologyChanged {
				replansForced.Inc()
			}
			incInstalled := false
			fullDue := opt.FullResolveEvery > 0 && epoch > 0 && epoch%opt.FullResolveEvery == 0
			if opt.Incremental && haveDecision && !fullDue {
				if d, ok := c.incrementalReplan(ectx, rp, drifted, current, healthy); ok && decisionValid(d, healthy, n) == nil {
					if err := install(d, fromIncremental); err != nil {
						return trace, err
					}
					incInstalled = true
				}
			}
			if !incInstalled {
				rctx, sp := c.Obs.StartSpanCtx(ectx, "replan",
					obs.F("epoch", float64(epoch)),
					obs.F("healthy_servers", float64(nHealthy)),
					obs.F("drift", drift))
				d, tries, fb, err := c.decide(rctx, drifted, healthy, epoch, opt)
				attempts = tries
				fellBack = fb
				sp.Field("failed", obs.Bool(err != nil))
				sp.Field("attempts", float64(tries))
				sp.End()
				switch {
				case err == nil:
					if err := install(d, fromScheduler); err != nil {
						return trace, err
					}
				case ctx.Err() != nil:
					return trace, ctx.Err()
				case errors.Is(err, sched.ErrInfeasible):
					// Capacity shrank below what the full workload needs:
					// shed/downgrade below instead of keeping a stale plan.
					infeasible = true
				case !haveDecision:
					return trace, fmt.Errorf("%w: %v", ErrNoDecision, err)
				default:
					// A failed replan keeps the previous decision running.
					replanFailed = true
					replansFailed.Inc()
				}
			}
			if churned {
				// A churn epoch "avoids a full resolve" exactly when the
				// admit/evict fast path held AND the incremental replan
				// installed — the hit rate TestChurnScenario gates on.
				if churnWarm && incInstalled {
					churnFast.Inc()
				} else {
					churnResolve.Inc()
				}
			}
		}

		// Graceful degradation: when the workload no longer fits the
		// surviving servers, or the running decision references a dead
		// server (e.g. the forced replan timed out), shed or downgrade
		// streams until a feasible zero-jitter plan exists.
		if infeasible || (haveDecision && decisionValid(current, healthy, n) != nil) {
			base := defaultConfigs(c.Sys.M())
			if haveDecision {
				base = current.Configs
			}
			if err := install(c.degrade(drifted, healthy, base, current.Shed, current.Downgraded), fromDegrade); err != nil {
				return trace, err
			}
		}
		degradedStreams.Set(float64(len(current.Shed) + len(current.Downgraded)))

		out, jitter := c.evaluate(ectx, drifted, current, opt.Workers, healthy, st.Stalled, epoch, true)
		if ctx.Err() != nil {
			return trace, ctx.Err()
		}
		// Jitter under the drifted true processing times: Theorem 1's offsets
		// were computed for the planned costs, so a drift-induced jitter is
		// model error, not a scheduler bug — audit it relaxed (metric-only).
		_ = opt.Check.Relaxed().ObserveJitter(jitter, current.ZeroJit)
		benefit := c.Truth.Benefit(c.Norm.Normalize(out))
		if err := opt.Check.Finite("epoch_benefit", benefit); err != nil {
			return trace, fmt.Errorf("runtime: epoch %d: %w", epoch, err)
		}
		trace.Reports = append(trace.Reports, EpochReport{
			Epoch:          epoch,
			Outcome:        out,
			Benefit:        benefit,
			MaxJitter:      jitter,
			Replanned:      replanned,
			ReplanFailed:   replanFailed,
			Degraded:       degraded || current.IsDegraded(),
			Shed:           append([]int(nil), current.Shed...),
			Downgraded:     append([]int(nil), current.Downgraded...),
			Stalled:        stalledCams,
			HealthyServers: nHealthy,
			FaultEvents:    len(events),
			DecideAttempts: attempts,
			ServerStreams:  serverStreams(current, n, st.Stalled),
		})
		epochsTotal.Inc()
		benefitGauge.Set(benefit)
		driftGauge.Set(drift)
		jitterHist.Observe(jitter)
		c.Obs.EventCtx(ectx, "epoch",
			obs.F("epoch", float64(epoch)),
			obs.F("benefit", benefit),
			obs.F("max_jitter", jitter),
			obs.F("drift", drift),
			obs.F("replanned", obs.Bool(replanned)),
			obs.F("replan_failed", obs.Bool(replanFailed)),
			obs.F("degraded", obs.Bool(degraded)),
			obs.F("healthy_servers", float64(nHealthy)))

		// Benefit-attribution ledger: decompose planned−realized into the
		// loss buckets via counterfactual re-evaluations. Only when
		// telemetry is on — the counterfactuals are pure (no RNG, scratch
		// reset per call), so a recorded run's decisions and reports stay
		// bit-identical to a nil-recorder run.
		if c.Obs != nil {
			led := c.buildLedger(ectx, ledgerInput{
				epoch: epoch, drifted: drifted, d: current,
				healthy: healthy, stalledCams: stalledCams,
				realized: benefit, fellBack: fellBack,
				replanFailed: replanFailed, degraded: degraded || current.IsDegraded(),
				workers: opt.Workers,
			})
			c.Obs.RecordLedger(ectx, led)
			recordLedgerMetrics(reg, &led)
		}

		esp.Field("benefit", benefit)
		esp.Field("replanned", obs.Bool(replanned))
		esp.Field("healthy_servers", float64(nHealthy))
		esp.End()
	}
	return trace, nil
}

// decisionSource names where an installed decision came from.
type decisionSource string

const (
	fromIncremental decisionSource = "incremental"
	fromScheduler   decisionSource = "scheduler"
	fromDegrade     decisionSource = "degraded"
)

// A failed decide attempt is retried decideRetries times, each retry after
// retryBackoff spread by a deterministic ±20% factor keyed on (BackoffSeed,
// epoch, try): a fixed delay synchronizes retry storms across concurrent
// deciders that fail together, and the jitter decorrelates them without
// giving up reproducibility. Delays never enter a trace.
const (
	decideRetries = 1
	retryBackoff  = 10 * time.Millisecond
)

// decide invokes the scheduler under the configured per-attempt deadline
// with bounded, jittered retry, planning around down servers.
// The returned decision is validated and always uses the full physical
// server index space. It returns the number of attempts made and whether
// a sharded solve of any attempt fell back to the serial path. Retrying
// stops early on infeasibility (deterministic — the degradation policy is
// the answer, not another attempt) and on parent-context cancellation.
func (c *Controller) decide(ctx context.Context, sys *objective.System, healthy []bool, epoch int, opt Options) (eva.Decision, int, bool, error) {
	retryCounter := c.Obs.Registry().Counter("runtime_decide_retries_total")

	attempts := 0
	fellBack := false
	var lastErr error
	for try := 0; try <= decideRetries; try++ {
		if try > 0 {
			retryCounter.Inc()
			select {
			case <-time.After(backoffWithJitter(retryBackoff, opt.BackoffSeed, epoch, try)):
			case <-ctx.Done():
				return eva.Decision{}, attempts, fellBack, ctx.Err()
			}
		}
		attempts++
		actx, asp := c.Obs.StartSpanCtx(ctx, "decide_attempt",
			obs.F("epoch", float64(epoch)),
			obs.F("try", float64(try)))
		d, stats, err := c.decideOnce(actx, sys, healthy, epoch, opt)
		asp.Field("failed", obs.Bool(err != nil))
		asp.End()
		fellBack = fellBack || stats.FellBack
		if err == nil {
			return d, attempts, fellBack, nil
		}
		lastErr = err
		if errors.Is(err, sched.ErrInfeasible) || ctx.Err() != nil {
			break
		}
	}
	return eva.Decision{}, attempts, fellBack, lastErr
}

// decideOnce runs a single scheduler invocation under the decide deadline.
// Mask-aware schedulers get the full system plus the liveness mask; others
// get a compacted view of the healthy servers and their assignments are
// remapped back to physical indices. The call runs in its own goroutine so
// a scheduler that ignores cancellation is abandoned when the deadline
// fires rather than blocking the loop.
func (c *Controller) decideOnce(ctx context.Context, sys *objective.System, healthy []bool, epoch int, opt Options) (eva.Decision, shard.Stats, error) {
	dctx := ctx
	cancel := func() {}
	if opt.DecideTimeout > 0 {
		dctx, cancel = context.WithTimeout(ctx, opt.DecideTimeout)
	}
	defer cancel()

	type result struct {
		d     eva.Decision
		stats shard.Stats
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		// The pprof phase label makes abandoned-but-still-running decide
		// goroutines attributable in CPU profiles; the stats travel through
		// the channel (never a Controller field) because an abandoned
		// attempt may still be writing after the loop has moved on.
		c.Obs.Do(dctx, "decide", func(dctx context.Context) {
			var r result
			if opt.Shards > 1 {
				if cd, ok := c.Sched.(CellDecider); ok {
					r.d, r.stats, r.err = c.decideSharded(dctx, cd, sys, healthy, epoch, opt)
					ch <- r
					return
				}
			}
			switch {
			case maskTrivial(healthy):
				r.d, r.err = c.Sched.Decide(dctx, sys, epoch)
			default:
				if ma, ok := c.Sched.(MaskAware); ok {
					r.d, r.err = ma.DecideMasked(dctx, sys, healthy, epoch)
				} else {
					view, phys := maskView(sys, healthy)
					r.d, r.err = c.Sched.Decide(dctx, view, epoch)
					if r.err == nil {
						r.d, r.err = remapDecision(r.d, phys)
					}
				}
			}
			ch <- r
		})
	}()
	select {
	case r := <-ch:
		if r.err == nil {
			if err := decisionValid(r.d, healthy, sys.N()); err != nil {
				return eva.Decision{}, r.stats, err
			}
		}
		return r.d, r.stats, r.err
	case <-dctx.Done():
		// The attempt's goroutine is abandoned from here: it keeps running
		// until the scheduler notices cancellation (or finishes), but its
		// result goes into the buffered channel nobody reads again — it can
		// never install a decision. Count the abandonment; the timeout
		// counter stays gated on the parent context so a cancelled run is
		// not misread as a hung scheduler.
		c.Obs.Registry().Counter("runtime_decide_abandoned_total").Inc()
		if ctx.Err() == nil {
			c.Obs.Registry().Counter("runtime_decide_timeouts_total").Inc()
		}
		return eva.Decision{}, shard.Stats{}, dctx.Err()
	}
}

// healthSource resolves the loop's cluster-condition feed: an explicit
// Health source wins, otherwise the fault injector oracle (whose methods
// are nil-safe, so a fault-free controller needs neither).
func (c *Controller) healthSource() HealthSource {
	if c.Health != nil {
		return c.Health
	}
	return c.Faults
}

// applyCanonicalOps applies an already-canonicalized op batch: removals
// drop clips by name, additions append. The clip slice is copied (callers
// may hold the old system) and the benefit normalizer is rebuilt — benefit
// values are comparable only within a fixed stream set.
func (c *Controller) applyCanonicalOps(removes []string, adds []*videosim.Clip) {
	clips := append([]*videosim.Clip(nil), c.Sys.Clips...)
	for _, name := range removes {
		for i, clip := range clips {
			if clip.Name == name {
				clips = append(clips[:i], clips[i+1:]...)
				break
			}
		}
	}
	clips = append(clips, adds...)
	c.Sys = &objective.System{Clips: clips, Servers: c.Sys.Servers}
	c.Norm = objective.NewNormalizer(c.Sys)
}

// backoffWithJitter spreads a retry delay by a deterministic ±20%
// multiplicative factor. The factor is drawn from a SplitMix64 stream keyed
// on (seed, epoch, try), so concurrent deciders with distinct seeds
// desynchronize while any single run stays exactly reproducible.
func backoffWithJitter(d time.Duration, seed uint64, epoch, try int) time.Duration {
	u := stats.SplitMix64(seed ^ uint64(epoch)*0x9E3779B97F4A7C15 ^ uint64(try))
	// Top 53 bits → uniform in [0,1); map into [0.8, 1.2).
	f := 0.8 + 0.4*float64(u>>11)/(1<<53)
	return time.Duration(float64(d) * f)
}

// maskTrivial reports whether the liveness mask imposes no restriction.
func maskTrivial(healthy []bool) bool {
	for _, ok := range healthy {
		if !ok {
			return false
		}
	}
	return true
}

// maskView builds a compacted system containing only the healthy servers,
// plus the compact-to-physical index table.
func maskView(sys *objective.System, healthy []bool) (*objective.System, []int) {
	var phys []int
	var servers []cluster.Server
	for j, ok := range healthy {
		if ok {
			phys = append(phys, j)
			servers = append(servers, sys.Servers[j])
		}
	}
	return &objective.System{Clips: sys.Clips, Servers: servers}, phys
}

// remapDecision rewrites a decision planned against a compacted server
// view back into the full physical index space.
func remapDecision(d eva.Decision, phys []int) (eva.Decision, error) {
	out := d
	out.Assign = make([]int, len(d.Assign))
	for i, a := range d.Assign {
		if a < 0 || a >= len(phys) {
			return eva.Decision{}, fmt.Errorf("runtime: scheduler assigned stream %d to compact server %d of %d", i, a, len(phys))
		}
		out.Assign[i] = phys[a]
	}
	return out, nil
}

// decisionValid checks a decision against the current topology: shapes
// consistent, every assignment in range and on a healthy server.
func decisionValid(d eva.Decision, healthy []bool, n int) error {
	if len(d.Streams) != len(d.Assign) {
		return fmt.Errorf("runtime: %d streams vs %d assignments", len(d.Streams), len(d.Assign))
	}
	for i, a := range d.Assign {
		if a < 0 || a >= n {
			return fmt.Errorf("runtime: stream %d assigned to out-of-range server %d", i, a)
		}
		if healthy != nil && !healthy[a] {
			return fmt.Errorf("runtime: stream %d assigned to down server %d", i, a)
		}
	}
	return nil
}

// applyLinkScales multiplies the system's uplinks by the per-server link
// scales, copying the server slice so the caller's system is untouched.
func applyLinkScales(sys *objective.System, scales []float64) {
	if scales == nil {
		return
	}
	scaled := false
	for _, s := range scales {
		if s != 1 {
			scaled = true
			break
		}
	}
	if !scaled {
		return
	}
	servers := append([]cluster.Server(nil), sys.Servers...)
	for j := range servers {
		servers[j].Uplink *= scales[j]
	}
	sys.Servers = servers
}

func countDegradedLinks(scales []float64) float64 {
	n := 0.0
	for _, s := range scales {
		if s != 1 {
			n++
		}
	}
	return n
}

// serverStreams counts the live streams per physical server under the
// decision, excluding shed videos and stalled cameras.
func serverStreams(d eva.Decision, n int, stalled []bool) []int {
	out := make([]int, n)
	shed := d.ShedSet(len(d.Configs))
	for i, a := range d.Assign {
		if a < 0 || a >= n {
			continue
		}
		v := d.Streams[i].Video
		if shed != nil && v < len(shed) && shed[v] {
			continue
		}
		if stalled != nil && v < len(stalled) && stalled[v] {
			continue
		}
		out[a]++
	}
	return out
}

// driftMagnitude quantifies how far the clips' content difficulty has
// moved from baseline at the epoch's virtual time: the mean of
// |ContentDifficulty(t) − 1| across clips. It is what the epoch events and
// the runtime_drift gauge report, so a replan can be correlated with the
// content move that caused it.
func (c *Controller) driftMagnitude(epoch int) float64 {
	if len(c.Sys.Clips) == 0 {
		return 0
	}
	t := float64(epoch) * EpochSeconds
	var sum float64
	for _, clip := range c.Sys.Clips {
		sum += math.Abs(clip.ContentDifficulty(t) - 1)
	}
	return sum / float64(len(c.Sys.Clips))
}

// driftedSystem returns a copy of the system whose clips reflect the
// content difficulty at the epoch's virtual time.
func (c *Controller) driftedSystem(epoch int) *objective.System {
	t := float64(epoch) * EpochSeconds
	clips := make([]*videosim.Clip, len(c.Sys.Clips))
	for i, clip := range c.Sys.Clips {
		clips[i] = clip.Drifted(t)
	}
	return &objective.System{Clips: clips, Servers: c.Sys.Servers}
}

// evaluate measures the decision's outcomes on the drifted system,
// evaluating every healthy server and merging the results in server order.
// A local simulation is CPU-bound, so min(workers, GOMAXPROCS) goroutines
// share the servers, each taking the next server index from an atomic
// counter; a remote c.Eval blocks on the wire, so it keeps workers
// goroutines. Each server's result depends only on its own arena and
// inputs, so the outcome is bitwise the same for any worker count. Shed
// videos and stalled cameras contribute nothing; a cancelled ctx makes the
// workers stop taking servers, so a mid-epoch cancellation does not wait
// out every server.
//
// live marks the real per-epoch evaluation: it emits DES telemetry, audits
// the deployed decision through the relaxed checker, and delegates to
// c.Eval when one is set. The ledger's counterfactual evaluations pass
// false so they perturb neither the DES metrics/events nor the relaxed
// checker's check_* counts, and always re-simulate locally (counterfactuals
// are hypotheticals — there is nothing to measure on a real agent). An
// evaluator error scores that server as contributing nothing, like a
// crashed server.
func (c *Controller) evaluate(ctx context.Context, sys *objective.System, d eva.Decision, workers int, healthy []bool, stalled []bool, epoch int, live bool) (objective.Vector, float64) {
	// The decision's stream parameters were planned against possibly-stale
	// content: re-derive true per-frame cost from the drifted clips while
	// keeping the decision's periods and placement. d is this call's shallow
	// copy, so re-pointing its Streams at the re-costed buffer leaves the
	// caller's decision alone.
	c.evalStreams = eva.Recost(c.evalStreams, sys, d.Streams, d.Configs)
	d.Streams = c.evalStreams

	shed := d.ShedSet(sys.M())
	skipVideo := func(v int) bool {
		if shed != nil && v < len(shed) && shed[v] {
			return true
		}
		return stalled != nil && v < len(stalled) && stalled[v]
	}

	// Audit the deployed decision against the drifted TRUE costs through the
	// relaxed checker: the plan was feasible under its believed costs, so an
	// exact-constraint violation here is model error (content drifted under a
	// running plan), recorded as check_* metrics but never an error.
	if chk := c.Opt.Check; chk != nil && live {
		c.liveStreams, c.liveAssign = c.liveStreams[:0], c.liveAssign[:0]
		for i, s := range d.Streams {
			if skipVideo(s.Video) {
				continue
			}
			c.liveStreams = append(c.liveStreams, s)
			c.liveAssign = append(c.liveAssign, d.Assign[i])
		}
		_ = chk.Relaxed().VerifyAssignmentServers(c.liveStreams, c.liveAssign, sys.Servers)
	}

	v := sys.ConfigOutcomes(d.Configs, skipVideo)

	// Fan the healthy servers out over the workers. Each server owns a
	// long-lived arena, spec buffer and result slot (the buffers are filled
	// here, before the fan-out; index j is then only touched by the worker
	// that took server j, and wg.Wait barriers the epochs), so steady-state
	// evaluation reuses the simulator's buffers instead of reallocating them.
	for len(c.arenas) < sys.N() {
		c.arenas = append(c.arenas, cluster.NewArena())
	}
	if len(c.specBufs) < sys.N() {
		bufs := make([][]cluster.StreamSpec, sys.N())
		copy(bufs, c.specBufs)
		c.specBufs = bufs
	}
	// Bucket the live streams by server in one pass, in stream order, so no
	// worker scans the whole assignment.
	for j := range sys.N() {
		c.specBufs[j] = c.specBufs[j][:0]
	}
	for i, a := range d.Assign {
		if a < 0 || a >= sys.N() || healthy != nil && !healthy[a] || skipVideo(d.Streams[i].Video) {
			continue
		}
		c.specBufs[a] = append(c.specBufs[a], d.Spec(i))
	}
	if cap(c.results) < sys.N() {
		c.results = make([]serverResult, sys.N())
	}
	results := c.results[:sys.N()]
	clear(results)
	remote := live && c.Eval != nil
	if !remote {
		workers = min(workers, goruntime.GOMAXPROCS(0))
	}
	var nextServer atomic.Int64
	var wg sync.WaitGroup
	for range max(1, min(workers, sys.N())) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(nextServer.Add(1) - 1)
				if j >= sys.N() || ctx.Err() != nil {
					return
				}
				if healthy != nil && !healthy[j] {
					continue // down servers process nothing
				}
				results[j] = c.evaluateServer(ctx, sys, j, epoch, live)
			}
		}()
	}
	wg.Wait()

	var latSum float64
	var frames int
	var jitter float64
	for _, r := range results {
		latSum += r.latSum
		frames += r.frames
		if r.jitter > jitter {
			jitter = r.jitter
		}
	}
	if frames > 0 {
		v[objective.Latency] = latSum / float64(frames)
	}
	return v, jitter
}

// evaluateServer evaluates server j's bucket of streams: remotely through
// c.Eval on a live evaluation that has one, else on the server's own arena.
// An evaluator error scores the server as contributing nothing.
func (c *Controller) evaluateServer(ctx context.Context, sys *objective.System, j, epoch int, live bool) serverResult {
	specs := c.specBufs[j]
	if live && c.Eval != nil {
		// Remote evaluation: the agent owns the DES (or the real
		// measurement); the controller only merges its numbers. The specs
		// slice aliases c.specBufs[j] — the evaluator contract requires
		// implementations that retain it to copy.
		r, err := c.Eval.EvaluateServer(ctx, epoch, j, specs, sys.Servers[j], eva.EvalHorizon)
		if err != nil {
			if c.Obs != nil {
				c.Obs.Registry().Counter("runtime_eval_failures_total").Inc()
				c.Obs.EventCtx(ctx, "eval_failed",
					obs.F("epoch", float64(epoch)),
					obs.F("server", float64(j)))
			}
			return serverResult{}
		}
		return serverResult{latSum: r.LatSum, frames: r.Frames, jitter: r.MaxJitter}
	}
	var res cluster.Result
	if !live || c.Obs == nil {
		// Counterfactual / disabled-telemetry path: plain simulation, no
		// spans, no events, no added allocations.
		res = c.arenas[j].SimulateServer(specs, sys.Servers[j], eva.EvalHorizon)
	} else {
		c.Obs.Do(ctx, "des", func(ctx context.Context) {
			sctx, sp := c.Obs.StartSpanCtx(ctx, "des",
				obs.F("server", float64(j)),
				obs.F("streams", float64(len(specs))))
			res = c.arenas[j].SimulateServerRecordedCtx(sctx, specs, sys.Servers[j], eva.EvalHorizon, c.Obs, j)
			sp.Field("frames", float64(res.FrameCount))
			sp.End()
		})
	}
	return serverResult{latSum: res.LatSum, frames: res.FrameCount, jitter: res.MaxJitter}
}
