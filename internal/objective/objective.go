// Package objective formulates the five-objective outcome machinery of
// Section 3: the outcome functions of Eqs. (2)–(5), min-max normalization
// over the configuration space, the utopian outcome vector, and the
// system-benefit function of Eq. (13) that the hidden decision maker
// scores solutions with.
package objective

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/videosim"
)

// Objective indexes the five optimization objectives, in the paper's order
// {lct, acc, net, com, eng}.
type Objective int

// The five objectives.
const (
	Latency  Objective = iota // mean end-to-end latency (s), lower is better
	Accuracy                  // mean mAP, higher is better
	Network                   // total uplink bandwidth (bits/s), lower is better
	Compute                   // total computing power (TFLOPS), lower is better
	Energy                    // total power (W), lower is better
)

// K is the number of objectives.
const K = 5

// Names returns the short objective names used in tables.
var Names = [K]string{"latency", "accuracy", "network", "compute", "energy"}

// Vector is an outcome vector (one value per objective).
type Vector [K]float64

// Slice returns the vector as a []float64 (a copy).
func (v Vector) Slice() []float64 { return []float64{v[0], v[1], v[2], v[3], v[4]} }

// System is the EVA system under optimization: the video sources and the
// edge servers (homogeneous compute, per-server uplink bandwidth).
type System struct {
	Clips   []*videosim.Clip
	Servers []cluster.Server
}

// M returns the number of video sources.
func (s *System) M() int { return len(s.Clips) }

// N returns the number of edge servers.
func (s *System) N() int { return len(s.Servers) }

// Outcomes evaluates the ground-truth outcome functions of Eqs. (2)–(5)
// for the given per-stream configurations and server assignment
// (assign[i] = server index of stream i; every stream must be assigned).
func (s *System) Outcomes(cfgs []videosim.Config, assign []int) Vector {
	if len(cfgs) != len(s.Clips) || len(assign) != len(s.Clips) {
		panic(fmt.Sprintf("objective: %d clips, %d cfgs, %d assigns", len(s.Clips), len(cfgs), len(assign)))
	}
	v := s.ConfigOutcomes(cfgs, nil)
	m := float64(len(s.Clips))
	for i, c := range s.Clips {
		cfg := cfgs[i]
		j := assign[i]
		if j < 0 || j >= len(s.Servers) {
			panic(fmt.Sprintf("objective: stream %d assigned to invalid server %d", i, j))
		}
		b := s.Servers[j].Uplink
		tx := 0.0
		if b > 0 {
			tx = c.BitsPerFrame(cfg.Resolution) / b
		}
		v[Latency] += (c.ProcTime(cfg.Resolution) + tx) / m
	}
	return v
}

// ConfigOutcomes sums the configuration-only outcome terms of Eqs. (2)–(4)
// over the videos skip does not exclude (nil excludes none): accuracy
// averaged over all M videos, and total bandwidth, compute and power.
// Latency is left 0; it depends on the placement.
func (s *System) ConfigOutcomes(cfgs []videosim.Config, skip func(v int) bool) Vector {
	var v Vector
	m := float64(len(s.Clips))
	for i, c := range s.Clips {
		if skip != nil && skip(i) {
			continue
		}
		cfg := cfgs[i]
		v[Accuracy] += c.Accuracy(cfg) / m
		v[Network] += c.Bandwidth(cfg)
		v[Compute] += c.Compute(cfg)
		v[Energy] += c.Power(cfg)
	}
	return v
}

// Bounds are element-wise outcome bounds over the configuration space,
// used for min-max normalization.
type Bounds struct {
	Lo, Hi Vector
}

// OutcomeBounds computes per-objective bounds by evaluating the extreme
// configurations: every outcome function is monotone in (resolution, fps),
// so the all-min and all-max configurations bound the space; latency bounds
// additionally use the best and worst uplink.
func (s *System) OutcomeBounds() Bounds {
	minCfg := videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]}
	maxCfg := videosim.Config{Resolution: videosim.Resolutions[len(videosim.Resolutions)-1], FPS: videosim.FrameRates[len(videosim.FrameRates)-1]}

	bestB, worstB := 0, 0
	for j, srv := range s.Servers {
		if srv.Uplink > s.Servers[bestB].Uplink {
			bestB = j
		}
		if srv.Uplink < s.Servers[worstB].Uplink {
			worstB = j
		}
	}
	lo := s.uniformOutcomes(minCfg, bestB)
	hi := s.uniformOutcomes(maxCfg, worstB)
	var b Bounds
	for k := 0; k < K; k++ {
		b.Lo[k] = math.Min(lo[k], hi[k])
		b.Hi[k] = math.Max(lo[k], hi[k])
	}
	return b
}

func (s *System) uniformOutcomes(cfg videosim.Config, server int) Vector {
	cfgs := make([]videosim.Config, len(s.Clips))
	assign := make([]int, len(s.Clips))
	for i := range cfgs {
		cfgs[i] = cfg
		assign[i] = server
	}
	return s.Outcomes(cfgs, assign)
}

// Normalizer maps raw outcome vectors into [0,1]^K using min-max bounds.
type Normalizer struct {
	B Bounds
}

// NewNormalizer builds a Normalizer from the system's outcome bounds.
func NewNormalizer(s *System) Normalizer { return Normalizer{B: s.OutcomeBounds()} }

// Normalize maps v element-wise into [0,1] (clipped).
func (n Normalizer) Normalize(v Vector) Vector {
	var out Vector
	for k := 0; k < K; k++ {
		span := n.B.Hi[k] - n.B.Lo[k]
		if span <= 0 {
			out[k] = 0
			continue
		}
		x := (v[k] - n.B.Lo[k]) / span
		if x < 0 {
			x = 0
		}
		if x > 1 {
			x = 1
		}
		out[k] = x
	}
	return out
}

// Denormalize maps a normalized vector back into raw outcome units.
func (n Normalizer) Denormalize(v Vector) Vector {
	var out Vector
	for k := 0; k < K; k++ {
		out[k] = n.B.Lo[k] + v[k]*(n.B.Hi[k]-n.B.Lo[k])
	}
	return out
}

// UtopiaNormalized is the utopian outcome vector in normalized space: best
// latency/network/compute/energy are 0 (their minimum), best accuracy is 1
// (its maximum). It is unattainable because the objectives conflict.
func UtopiaNormalized() Vector {
	var u Vector
	u[Accuracy] = 1
	return u
}

// Preference is the hidden system pricing preference: the weight vector of
// Eq. (13). The decision maker scores normalized outcome vectors with it;
// the scheduler must *learn* it from comparisons.
type Preference struct {
	W Vector
}

// UniformPreference returns weights of 1 for all objectives.
func UniformPreference() Preference {
	return Preference{W: Vector{1, 1, 1, 1, 1}}
}

// Benefit returns U = −Σ wᵢ·|yᵢ − yᵢ*| for a normalized outcome vector
// (Eq. 13); higher is better, with maximum 0 at the utopia point.
func (p Preference) Benefit(norm Vector) float64 {
	u := UtopiaNormalized()
	var s float64
	for k := 0; k < K; k++ {
		s -= p.W[k] * math.Abs(norm[k]-u[k])
	}
	return s
}

// WeightSum returns Σ wᵢ.
func (p Preference) WeightSum() float64 {
	var s float64
	for _, w := range p.W {
		s += w
	}
	return s
}

// NormalizeBenefit maps a raw benefit U onto the paper's normalized scale
// (footnote 2): U_norm = (U − minU)/(maxU − minU) with minU = −½·Σwᵢ and
// maxU the benefit achieved by PaMO+ on the same instance. (The footnote's
// printed formula has the fraction inverted — 1 − (·) would score the best
// method 0 — so we use the orientation the figures actually show.) Values
// are clamped to [0, 1.05] to keep pathological instances readable.
func NormalizeBenefit(u, maxU float64, p Preference) float64 {
	minU := -0.5 * p.WeightSum()
	span := maxU - minU
	if span <= 0 {
		return 1
	}
	v := (u - minU) / span
	if v < 0 {
		v = 0
	}
	if v > 1.05 {
		v = 1.05
	}
	return v
}

// BenefitRatio decomposes a solution's benefit contribution per objective,
// as the shaded areas of Figure 6: share_k = w_k(1−|y_k−y*_k|)/Σ… — the
// closeness-to-utopia mass attributable to each objective.
func (p Preference) BenefitRatio(norm Vector) [K]float64 {
	u := UtopiaNormalized()
	var shares [K]float64
	var total float64
	for k := 0; k < K; k++ {
		shares[k] = p.W[k] * (1 - math.Abs(norm[k]-u[k]))
		total += shares[k]
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}
