// Package eva holds the shared decision types and the ground-truth
// evaluation path used by PaMO and the baseline schedulers alike: a
// Decision (per-video configurations + post-split stream assignment +
// capture offsets), helpers to build schedulable streams from
// configurations, and an evaluator that scores a decision on the real
// system — analytic Eqs. (2)–(4) for accuracy/bandwidth/compute/energy and
// the discrete-event simulator for end-to-end latency, so that queueing
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

// Decision is a complete scheduling decision for a System.
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

// BuildStreams converts per-video configurations into post-split periodic
// streams using the system's ground-truth processing/frame-size curves.
// Schedulers that must not peek at ground truth (PaMO) build their own
// stream lists from model estimates instead.
func BuildStreams(sys *objective.System, cfgs []videosim.Config) []sched.Stream {
	if len(cfgs) != sys.M() {
		panic(fmt.Sprintf("eva: %d configs for %d videos", len(cfgs), sys.M()))
	}
	streams := make([]sched.Stream, sys.M())
	for i, c := range sys.Clips {
		streams[i] = sched.Stream{
			Video:  i,
			Period: sched.RatFromFPS(int64(math.Round(cfgs[i].FPS))),
			Proc:   c.ProcTimeOf(cfgs[i]),
			Bits:   c.BitsOf(cfgs[i]),
		}
	}
	return sched.SplitHighRate(streams)
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
// configurations; latency is measured by simulating the post-split streams
// on the cluster, so queueing delay and jitter from bad placements are paid
// for.
func Evaluate(sys *objective.System, d Decision) objective.Vector {
	if len(d.Streams) != len(d.Assign) {
		panic(fmt.Sprintf("eva: %d streams vs %d assignments", len(d.Streams), len(d.Assign)))
	}
	var v objective.Vector
	m := float64(sys.M())
	for i, c := range sys.Clips {
		cfg := d.Configs[i]
		v[objective.Accuracy] += c.Accuracy(cfg) / m
		v[objective.Network] += c.Bandwidth(cfg)
		v[objective.Compute] += c.Compute(cfg)
		v[objective.Energy] += c.Power(cfg)
	}

	specs := make([]cluster.StreamSpec, len(d.Streams))
	for i, s := range d.Streams {
		off := 0.0
		if d.Offsets != nil {
			off = d.Offsets[i]
		}
		specs[i] = cluster.StreamSpec{
			Period: s.Period.Float(),
			Offset: off,
			Proc:   s.Proc,
			Bits:   s.Bits,
		}
	}
	// MeanLatency folds every frame into one running sum across servers.
	// Adding the servers' per-server Result.LatSum instead would skip the
	// frame logs but round differently, so it waits for the golden re-pin
	// that the DES hyperperiod extrapolation needs anyway.
	results := cluster.SimulateCluster(specs, sys.Servers, cluster.Assignment(d.Assign), EvalHorizon)
	v[objective.Latency] = cluster.MeanLatency(results)
	return v
}

// MaxJitter reports the worst simulated per-stream jitter of a decision —
// the quantity Theorem 1 guarantees to be zero for Algorithm 1 plans.
func MaxJitter(sys *objective.System, d Decision) float64 {
	specs := make([]cluster.StreamSpec, len(d.Streams))
	for i, s := range d.Streams {
		off := 0.0
		if d.Offsets != nil {
			off = d.Offsets[i]
		}
		specs[i] = cluster.StreamSpec{
			Period: s.Period.Float(), Offset: off, Proc: s.Proc, Bits: s.Bits,
		}
	}
	results := cluster.SimulateCluster(specs, sys.Servers, cluster.Assignment(d.Assign), EvalHorizon)
	return cluster.MaxJitter(results)
}

// AnalyticOutcomes scores a decision with the purely analytic latency of
// Eq. (5) (per-frame processing + transmission, no queueing), which is
// what model-based planners reason with.
func AnalyticOutcomes(sys *objective.System, d Decision) objective.Vector {
	var v objective.Vector
	m := float64(sys.M())
	for i, c := range sys.Clips {
		cfg := d.Configs[i]
		v[objective.Accuracy] += c.Accuracy(cfg) / m
		v[objective.Network] += c.Bandwidth(cfg)
		v[objective.Compute] += c.Compute(cfg)
		v[objective.Energy] += c.Power(cfg)
	}
	var lat float64
	for i, s := range d.Streams {
		b := sys.Servers[d.Assign[i]].Uplink
		tx := 0.0
		if b > 0 {
			tx = s.Bits / b
		}
		lat += s.Proc + tx
	}
	if len(d.Streams) > 0 {
		v[objective.Latency] = lat / float64(len(d.Streams))
	}
	return v
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
