// Package repro is the public API of this reproduction of "The Blind and
// the Elephant: A Preference-aware Edge Video Analytics Scheduler for
// Maximizing System Benefit" (PaMO, ICPP 2024).
//
// It re-exports the pieces a downstream user composes:
//
//   - a simulated EVA System (video clips + edge servers),
//   - the PaMO scheduler (Algorithm 2: GP outcome models, comparison-based
//     preference learning, qNEI Bayesian optimization, zero-jitter
//     scheduling) and its PaMO+ variant,
//   - the JCAB and FACT baseline schedulers,
//   - the ground-truth evaluator (analytic outcomes + discrete-event
//     latency) and the Eq. 13 benefit machinery.
//
// See examples/ for runnable end-to-end programs and cmd/pamo-bench for
// the paper's figures.
package repro

import (
	"context"
	"math/rand/v2"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/exp"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/pricing"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/videosim"
)

// Core system types.
type (
	// System is an edge video analytics system: video sources and servers.
	System = objective.System
	// Server is one edge server (uplink bandwidth in bits/s).
	Server = cluster.Server
	// Clip is one simulated video source.
	Clip = videosim.Clip
	// Config is a per-stream (resolution, fps) knob pair.
	Config = videosim.Config
	// Outcome is a five-objective outcome vector
	// (latency, accuracy, network, compute, energy).
	Outcome = objective.Vector
	// Preference is the hidden system pricing preference of Eq. 13.
	Preference = objective.Preference
	// Normalizer min-max normalizes outcomes into [0,1]^5.
	Normalizer = objective.Normalizer
	// Decision is a complete scheduling decision.
	Decision = eva.Decision
	// Stream is a periodic stream as Algorithm 1 schedules it.
	Stream = sched.Stream
	// Plan is the output of the zero-jitter scheduling Algorithm 1.
	Plan = sched.Plan
	// DecisionMaker answers pairwise outcome comparisons.
	DecisionMaker = pref.DecisionMaker
	// Oracle is a DecisionMaker backed by a hidden true preference.
	Oracle = pref.Oracle
	// PaMOOptions tunes the PaMO scheduler.
	PaMOOptions = pamo.Options
	// PaMOResult is the output of a PaMO run.
	PaMOResult = pamo.Result
	// JCABOptions tunes the JCAB baseline.
	JCABOptions = baselines.JCABOptions
	// FACTOptions tunes the FACT baseline.
	FACTOptions = baselines.FACTOptions
)

// Objective indices of an Outcome vector.
const (
	Latency  = objective.Latency
	Accuracy = objective.Accuracy
	Network  = objective.Network
	Compute  = objective.Compute
	Energy   = objective.Energy
)

// ObjectiveNames are the short names of the five objectives, in order.
var ObjectiveNames = objective.Names

// Standard knob grids (the paper's configuration space).
var (
	Resolutions = videosim.Resolutions
	FrameRates  = videosim.FrameRates
)

// NewSystem builds a reproducible simulated system with m MOT16-like video
// sources and n edge servers whose uplinks are drawn from the paper's
// {5..30} Mbps set.
func NewSystem(m, n int, seed uint64) *System { return exp.NewSystem(m, n, seed) }

// NewSystemWithUplinks builds a system with explicit server uplinks (bits/s).
func NewSystemWithUplinks(m int, uplinks []float64, seed uint64) *System {
	servers := make([]Server, len(uplinks))
	for j, u := range uplinks {
		servers[j] = Server{Name: "edge", Uplink: u}
	}
	return &System{Clips: videosim.StandardClips(m, seed), Servers: servers}
}

// NewRNG returns a seeded random source for DecisionMaker noise etc.
func NewRNG(seed uint64) *rand.Rand { return stats.NewRNG(seed) }

// UniformPreference returns Eq. 13 weights of 1 for every objective.
func UniformPreference() Preference { return objective.UniformPreference() }

// NewNormalizer builds the system's min-max outcome normalizer.
func NewNormalizer(sys *System) Normalizer { return objective.NewNormalizer(sys) }

// NormalizeBenefit maps a raw benefit onto the paper's normalized scale
// (1.0 = the PaMO+ reference value maxU).
func NormalizeBenefit(u, maxU float64, p Preference) float64 {
	return objective.NormalizeBenefit(u, maxU, p)
}

// PaMOScheduler is a constructed (but not yet run) PaMO instance; use it
// when you need post-run access to the scheduler, e.g. Diagnostics().
type PaMOScheduler = pamo.Scheduler

// NewPaMO builds a PaMO scheduler without running it.
func NewPaMO(sys *System, dm DecisionMaker, opt PaMOOptions) *PaMOScheduler {
	return pamo.New(sys, dm, opt)
}

// RunPaMO runs the full PaMO scheduler (Algorithm 2) with a learned
// preference model; dm answers the pairwise comparisons.
func RunPaMO(sys *System, dm DecisionMaker, opt PaMOOptions) (*PaMOResult, error) {
	return NewPaMO(sys, dm, opt).Run()
}

// RunPaMOPlus runs the PaMO+ variant, which scores candidates with the
// true preference function instead of a learned model.
func RunPaMOPlus(sys *System, truth Preference, opt PaMOOptions) (*PaMOResult, error) {
	opt.TruePref = &truth
	return pamo.New(sys, nil, opt).Run()
}

// RunJCAB runs the JCAB baseline (Lyapunov optimization + First-Fit).
func RunJCAB(sys *System, opt JCABOptions) (Decision, error) {
	return baselines.JCAB(context.Background(), sys, opt)
}

// RunFACT runs the FACT baseline (block coordinate descent).
func RunFACT(sys *System, opt FACTOptions) (Decision, error) {
	return baselines.FACT(context.Background(), sys, opt)
}

// Evaluate scores a decision on the ground-truth system: analytic
// Eqs. (2)–(4) plus discrete-event-simulated latency.
func Evaluate(sys *System, d Decision) Outcome { return eva.Evaluate(sys, d) }

// MaxJitter reports the worst simulated per-stream delay jitter of a
// decision (zero for Algorithm 1 plans, per Theorem 1).
func MaxJitter(sys *System, d Decision) float64 { return eva.MaxJitter(sys, d) }

// BuildStreams converts per-video configurations into post-split periodic
// streams using the system's ground-truth curves.
func BuildStreams(sys *System, cfgs []Config) []Stream { return eva.BuildStreams(sys, cfgs) }

// ScheduleZeroJitter runs Algorithm 1 directly: group the streams under
// the zero-jitter constraint (Const2) and map groups to servers with the
// Hungarian algorithm.
func ScheduleZeroJitter(streams []Stream, servers []Server) (Plan, error) {
	return sched.Schedule(streams, servers)
}

// ZeroJitterDecision deploys an Algorithm 1 plan with Theorem 1's capture
// offsets laid out on each group's server.
func ZeroJitterDecision(cfgs []Config, streams []Stream, plan Plan, servers []Server) Decision {
	return eva.ZeroJitterDecision(cfgs, streams, plan, servers)
}

// RandomOffsets draws an uncoordinated capture offset in [0, T) for every
// stream, as cameras without a scheduler would start.
func RandomOffsets(streams []Stream, rng *rand.Rand) []float64 {
	return eva.RandomOffsets(streams, rng)
}

// NewOracle builds a decision maker that answers comparisons from a hidden
// true preference, with optional response noise.
func NewOracle(truth Preference, noise float64, seed uint64) *Oracle {
	return &Oracle{Pref: truth, Noise: noise, Rng: stats.NewRNG(seed)}
}

// Online control plane, trace replay, pricing rules, and heterogeneous
// virtualization (see the internal packages for full APIs).
type (
	// Controller drives the online replanning loop over virtual epochs.
	Controller = runtime.Controller
	// ControllerOptions tunes replanning cadence and evaluation workers.
	ControllerOptions = runtime.Options
	// RuntimeScheduler produces decisions for the controller.
	RuntimeScheduler = runtime.Scheduler
	// RuntimeTrace is the controller's epoch-by-epoch history.
	RuntimeTrace = runtime.Trace
	// WorkloadTrace is a recorded profiling trace (JSON serializable).
	WorkloadTrace = trace.Trace
	// Billing composes tariffs and an SLA into a non-linear benefit.
	Billing = pricing.Billing
	// PhysicalServer is a heterogeneous machine prior to virtualization.
	PhysicalServer = cluster.PhysicalServer
)

// RecordTrace profiles the whole configuration grid of a system and
// returns a replayable workload trace.
func RecordTrace(sys *System, noiseStd float64, perCfg int, seed uint64) *WorkloadTrace {
	prof := videosim.NewProfiler(noiseStd, stats.NewRNG(seed))
	return trace.Record(sys, prof, perCfg)
}

// NewTraceReplayer builds a videosim.Measurer that replays a recorded
// trace; pass it via PaMOOptions.Measurer.
func NewTraceReplayer(t *WorkloadTrace) videosim.Measurer { return trace.NewReplayer(t) }

// CityBilling is a ready-made non-linear billing scheme (tiered energy,
// metered uplink, SLA revenue) for the given number of billed streams.
func CityBilling(streams int) Billing { return pricing.CityBilling(streams) }

// Virtualize splits heterogeneous physical servers into the homogeneous
// unit-capacity servers the scheduler works with (Section 3's note).
func Virtualize(phys []PhysicalServer) ([]Server, error) { return cluster.Virtualize(phys) }

// Classical fixed-weight preference definitions (the paper's reference
// [10]); see internal/exp.Pricing for the ablation against learned
// preferences.
var (
	// EqualWeights assigns every objective the same weight.
	EqualWeights = objective.EqualWeights
	// ROCWeights builds rank-order-centroid weights from a 1-based ranking.
	ROCWeights = objective.ROCWeights
	// RankSumWeights builds rank-sum weights from a 1-based ranking.
	RankSumWeights = objective.RankSumWeights
	// ParetoFront filters the non-dominated outcome vectors of a set.
	ParetoFront = objective.ParetoFront
)
