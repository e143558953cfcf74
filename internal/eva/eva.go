// Package eva holds the shared decision types and the one deploy path used
// by PaMO, the baseline schedulers and the online runtime alike. Each step
// of "configurations → streams → plan → decision → simulator input →
// outcome vector" has one home: NewStream/TrueStream and BuildStreams turn
// configurations into schedulable streams; ZeroJitterDecision turns an
// Algorithm 1 plan into a deployable Decision, with the slot layout itself
// in sched.Plan.Offsets; Recost prices a planned decision at ground truth;
// Decision.Spec is a stream as the simulator runs it; and Evaluate scores a
// decision on the real system. Accuracy, bandwidth, compute and energy come
// from analytic Eqs. (2)–(4) (objective.System.ConfigOutcomes), and
// latency from the discrete-event simulator (Simulate), so that queueing
// and delay jitter caused by poor scheduling actually hurt, exactly as on
// the paper's testbed.
package eva

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cluster"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/videosim"
)

// Decision is a complete scheduling decision for a System: Algorithm 1's
// grouping and server mapping (Assign) plus Theorem 1's capture offsets.
// ZeroJitterDecision builds one from a plan; Spec(i) is stream i as the
// simulator runs it.
type Decision struct {
	Configs []videosim.Config // per video source
	Streams []sched.Stream    // post-split periodic streams
	Assign  []int             // per stream: server index
	Offsets []float64         // per stream: capture offset (nil = all zero)
	ZeroJit bool              // true when offsets follow Theorem 1

	// Shed lists video indices dropped by the degradation policy: they
	// have no entries in Streams and contribute nothing to any outcome.
	// Downgraded lists videos running below the configuration the planner
	// originally wanted (Configs holds the configuration actually running).
	// Both are sorted and nil for ordinary full-capacity decisions.
	Shed       []int
	Downgraded []int
}

// IsDegraded reports whether the decision came out of the degradation
// policy (any stream shed or downgraded).
func (d Decision) IsDegraded() bool { return len(d.Shed) > 0 || len(d.Downgraded) > 0 }

// ShedSet returns Shed as a membership mask over m videos (nil when
// nothing was shed).
func (d Decision) ShedSet(m int) []bool {
	if len(d.Shed) == 0 {
		return nil
	}
	set := make([]bool, m)
	for _, i := range d.Shed {
		if i >= 0 && i < m {
			set[i] = true
		}
	}
	return set
}

// NewStream is video v's unsplit periodic stream at configuration cfg: the
// exact period 1/fps and the given per-frame processing time and frame
// size. Planners that must not peek at ground truth (PaMO) pass their model
// estimates; TrueStream passes the truth.
func NewStream(v int, cfg videosim.Config, proc, bits float64) sched.Stream {
	return sched.Stream{
		Video:  v,
		Period: sched.RatFromFPS(int64(math.Round(cfg.FPS))),
		Proc:   proc,
		Bits:   bits,
	}
}

// TrueStream is NewStream at the clip's ground-truth per-frame cost.
func TrueStream(clip *videosim.Clip, v int, cfg videosim.Config) sched.Stream {
	return NewStream(v, cfg, clip.ProcTime(cfg.Resolution), clip.BitsPerFrame(cfg.Resolution))
}

// BuildStreams converts per-video configurations into post-split periodic
// streams at the system's ground-truth processing/frame-size curves
// (TrueStream for every video, then sched.SplitHighRate).
func BuildStreams(sys *objective.System, cfgs []videosim.Config) []sched.Stream {
	if len(cfgs) != sys.M() {
		panic(fmt.Sprintf("eva: %d configs for %d videos", len(cfgs), sys.M()))
	}
	streams := make([]sched.Stream, sys.M())
	for i, c := range sys.Clips {
		streams[i] = TrueStream(c, i, cfgs[i])
	}
	return sched.SplitHighRate(streams)
}

// Recost overwrites dst with streams, each re-priced at the ground-truth
// per-frame cost of its video's configuration cfgs[Video] on sys, and
// returns it. Periods, splitting and order are kept: this is what a
// decision planned against estimated (or stale) costs costs when it runs.
// dst's capacity is reused; nil allocates.
func Recost(dst []sched.Stream, sys *objective.System, streams []sched.Stream, cfgs []videosim.Config) []sched.Stream {
	dst = append(dst[:0], streams...)
	for i := range dst {
		clip := sys.Clips[dst[i].Video]
		cfg := cfgs[dst[i].Video]
		dst[i].Proc = clip.ProcTime(cfg.Resolution)
		dst[i].Bits = clip.BitsPerFrame(cfg.Resolution)
	}
	return dst
}

// ZeroJitterDecision deploys an Algorithm 1 plan: the configurations and
// streams as given, the plan's stream→server mapping, and the Theorem 1
// capture offsets plan.Offsets lays out on each group's server.
func ZeroJitterDecision(cfgs []videosim.Config, streams []sched.Stream, plan sched.Plan, servers []cluster.Server) Decision {
	return Decision{
		Configs: cfgs,
		Streams: streams,
		Assign:  plan.StreamServer,
		Offsets: plan.Offsets(streams, servers),
		ZeroJit: true,
	}
}

// Spec is stream i of the decision as the simulator runs it: its period,
// its capture offset (0 when Offsets is nil) and its per-frame cost.
func (d Decision) Spec(i int) cluster.StreamSpec {
	s := d.Streams[i]
	off := 0.0
	if d.Offsets != nil {
		off = d.Offsets[i]
	}
	return cluster.StreamSpec{Period: s.Period.Float(), Offset: off, Proc: s.Proc, Bits: s.Bits}
}

// RandomOffsets draws a capture offset in [0, T) for every stream — the
// uncoordinated-camera behaviour baseline schedulers get.
func RandomOffsets(streams []sched.Stream, rng *rand.Rand) []float64 {
	out := make([]float64, len(streams))
	for i, s := range streams {
		out[i] = rng.Float64() * s.Period.Float()
	}
	return out
}

// EvalHorizon is the simulated wall-clock used to measure latency (s).
const EvalHorizon = 30.0

// Evaluate scores a decision against ground truth. Accuracy, bandwidth,
// compute and energy follow Eqs. (2)–(4) analytically from the per-video
// configurations (objective.System.ConfigOutcomes); latency is measured by
// simulating the post-split streams on the cluster, so queueing delay and
// jitter from bad placements are paid for. It runs on a fresh Evaluator;
// a caller that scores many decisions keeps one.
func Evaluate(sys *objective.System, d Decision) objective.Vector {
	var e Evaluator
	return e.Evaluate(sys, d)
}

// Evaluator is Evaluate on reused simulator memory: one cluster.Arena and
// one spec buffer, so a warm Evaluator scores a decision without touching
// the heap. It is single-goroutine, like the arena it owns; its zero value
// is ready to use.
type Evaluator struct {
	arena cluster.Arena
	specs []cluster.StreamSpec
}

// Evaluate is the package-level Evaluate, bit for bit. Its latency is the
// frame-log fold cluster.MeanLatency(Simulate(sys, d)) up to rounding: the
// arena serves a periodic server for one hyperperiod and extrapolates the
// rest (cluster.Arena).
func (e *Evaluator) Evaluate(sys *objective.System, d Decision) objective.Vector {
	if len(d.Streams) != len(d.Assign) {
		panic(fmt.Sprintf("eva: %d streams vs %d assignments", len(d.Streams), len(d.Assign)))
	}
	v := sys.ConfigOutcomes(d.Configs, nil)
	e.specs = e.specs[:0]
	for i := range d.Streams {
		e.specs = append(e.specs, d.Spec(i))
	}
	// The arena threads one running latency sum through the servers in
	// index order, the order cluster.MeanLatency folds frame logs in.
	v[objective.Latency] = e.arena.MeanLatency(e.specs, sys.Servers, cluster.Assignment(d.Assign), EvalHorizon)
	return v
}

// MaxJitter reports the worst simulated per-stream jitter of a decision —
// the quantity Theorem 1 guarantees to be zero for Algorithm 1 plans.
func MaxJitter(sys *objective.System, d Decision) float64 {
	return cluster.MaxJitter(Simulate(sys, d))
}

// Simulate runs the decision's streams (Spec) on the cluster for
// EvalHorizon and returns the per-server results with their frame logs.
func Simulate(sys *objective.System, d Decision) []cluster.Result {
	specs := make([]cluster.StreamSpec, len(d.Streams))
	for i := range specs {
		specs[i] = d.Spec(i)
	}
	return cluster.SimulateCluster(specs, sys.Servers, cluster.Assignment(d.Assign), EvalHorizon)
}

// ConfigGrid enumerates the standard knob grid as (resolution, fps) pairs.
func ConfigGrid() []videosim.Config {
	var out []videosim.Config
	for _, r := range videosim.Resolutions {
		for _, s := range videosim.FrameRates {
			out = append(out, videosim.Config{Resolution: r, FPS: s})
		}
	}
	return out
}
