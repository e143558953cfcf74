// Package videosim provides the synthetic video-analytics workload that
// substitutes for the paper's Jetson + Triton + YOLOv8 + MOT16 testbed.
//
// The scheduler layers never look at pixels: they only see the five outcome
// metrics as functions of (resolution, frame rate, assignment). This
// package reproduces those functions with the shapes measured in the
// paper's Figure 2 — mAP saturating in resolution and mildly increasing in
// frame rate, quadratic per-frame compute time and frame size, bandwidth
// and energy linear in frame rate — plus per-clip variation and AR(1)
// content drift, so the GP outcome models have something real to learn.
//
// Reference calibration (a "typical" clip at resolution 2000, 30 fps,
// roughly matching Figure 2's axes): mAP ≈ 0.8, per-frame GPU time ≈ 70 ms,
// frame size ≈ 500 kbit (15 Mbps), compute ≈ 40 TFLOPS, power ≈ 100 W.
package videosim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Config is a per-stream video configuration: the paper's two knobs,
// resolution and frame rate.
type Config struct {
	Resolution float64 // long-edge pixels, paper sweeps 500–2000
	FPS        float64 // frame sampling rate, paper sweeps 5–30
}

// Standard knob grids used across experiments (7 resolutions × 6 rates,
// chosen so that frame periods 1/fps have a rich divisibility structure for
// the zero-jitter grouping).
var (
	Resolutions = []float64{500, 750, 1000, 1250, 1500, 1750, 2000}
	FrameRates  = []float64{5, 6, 10, 15, 25, 30}
)

// GammaTxJPerBit is the transmission energy per bit (J), following the
// paper (γ = 0.5×10⁻⁵ J/bit, consistent with JCAB).
const GammaTxJPerBit = 0.5e-5

// Clip models one video source. The exported factors are multiplicative
// per-clip deviations from the reference calibration; contentPhase drives a
// deterministic pseudo-content difficulty drift.
type Clip struct {
	Name string

	AccBase      float64 // peak mAP at max config (reference 0.82)
	AccFactor    float64 // difficulty of the scene (lower = harder)
	ComputeFac   float64 // relative DNN cost on this content
	BitFac       float64 // encoder efficiency on this content
	EnergyFac    float64 // per-frame GPU energy scale
	contentPhase float64
}

// NewClip builds a clip with per-clip factors drawn around 1 (±12%).
func NewClip(name string, rng *rand.Rand) *Clip {
	f := func() float64 { return 1 + 0.12*(2*rng.Float64()-1) }
	return &Clip{
		Name:         name,
		AccBase:      0.9,
		AccFactor:    f(),
		ComputeFac:   f(),
		BitFac:       f(),
		EnergyFac:    f(),
		contentPhase: rng.Float64() * 2 * math.Pi,
	}
}

// FactorDistance is the Euclidean distance between two clips' content
// factors — the content-similarity metric churn-time configuration donors
// rank candidate clips by.
func (c *Clip) FactorDistance(o *Clip) float64 {
	d := 0.0
	for _, pair := range [...][2]float64{
		{c.AccBase, o.AccBase},
		{c.AccFactor, o.AccFactor},
		{c.ComputeFac, o.ComputeFac},
		{c.BitFac, o.BitFac},
		{c.EnergyFac, o.EnergyFac},
	} {
		diff := pair[0] - pair[1]
		d += diff * diff
	}
	return math.Sqrt(d)
}

// StandardClips returns n reproducible clips named like the MOT16 set.
func StandardClips(n int, seed uint64) []*Clip {
	rng := rand.New(rand.NewPCG(seed, 0xC11F))
	out := make([]*Clip, n)
	for i := range out {
		out[i] = NewClip(fmt.Sprintf("MOT16-%02d", i+1), rng)
	}
	return out
}

// Accuracy returns the ground-truth mAP for this clip at cfg, following the
// separable form of Eq. 2: θ_acc(r)·ε_acc(s). θ is a saturating concave
// curve in resolution; ε is a mild linear gain in frame rate (tracking
// stability at higher rates).
func (c *Clip) Accuracy(cfg Config) float64 {
	r := cfg.Resolution
	// Sigmoid-like saturation: ≈0.34 of peak at r=500, ≈0.89 at r=2000.
	theta := c.AccBase * (r * r / (r*r + 700*700))
	eps := 0.84 + 0.0055*cfg.FPS
	acc := c.AccFactor * theta * eps
	if acc > 0.95 {
		acc = 0.95
	}
	if acc < 0 {
		acc = 0
	}
	return acc
}

// ProcTime returns the ground-truth per-frame GPU inference time (seconds)
// at resolution r — quadratic in r (θ_lcom in Eq. 5): ≈ 14 ms at r=500 and
// ≈ 70 ms at r=2000 for the reference clip.
func (c *Clip) ProcTime(r float64) float64 {
	return c.ComputeFac * (0.010 + 1.5e-8*r*r)
}

// BitsPerFrame returns the ground-truth encoded frame size in bits at
// resolution r (θ_bit in Eqs. 4–5) — quadratic, ≈ 500 kbit at r=2000.
func (c *Clip) BitsPerFrame(r float64) float64 {
	return c.BitFac * 0.125 * r * r
}

// Bandwidth returns the uplink bandwidth demand in bits/s (Eq. 3's f_net
// contribution of this stream).
func (c *Clip) Bandwidth(cfg Config) float64 {
	return c.BitsPerFrame(cfg.Resolution) * cfg.FPS
}

// ComputePerFrame returns the DNN inference cost of one frame in TFLOP —
// quadratic in resolution, ≈ 1.33 TFLOP at r=2000.
func (c *Clip) ComputePerFrame(r float64) float64 {
	return c.ComputeFac * 3.33e-7 * r * r
}

// Compute returns the sustained computing-power demand in TFLOPS (Eq. 3's
// f_com contribution).
func (c *Clip) Compute(cfg Config) float64 {
	return c.ComputePerFrame(cfg.Resolution) * cfg.FPS
}

// EnergyPerFrame returns the GPU energy of one frame inference in J —
// quadratic in resolution, ≈ 0.8 J at r=2000.
func (c *Clip) EnergyPerFrame(r float64) float64 {
	return c.EnergyFac * 2.0e-7 * r * r
}

// Power returns the total power draw in W for this stream (Eq. 4 divided
// by 1 s): transmission energy γ·bits·fps plus compute energy per second.
func (c *Clip) Power(cfg Config) float64 {
	tx := GammaTxJPerBit * c.BitsPerFrame(cfg.Resolution) * cfg.FPS
	comp := c.EnergyPerFrame(cfg.Resolution) * cfg.FPS
	return tx + comp
}

// ContentDifficulty returns a slowly varying multiplicative factor (~±5%)
// representing scene complexity at time t seconds; the profiler uses it to
// make repeated measurements of the same configuration disagree the way
// real video does.
func (c *Clip) ContentDifficulty(t float64) float64 {
	return 1 + 0.05*math.Sin(2*math.Pi*t/47+c.contentPhase)
}

// Drifted returns a copy of the clip whose content difficulty at time t
// seconds is baked into its factors — harder content costs more compute
// and bits and detects slightly worse, consistent with Profiler.Measure.
func (c *Clip) Drifted(t float64) *Clip {
	d := c.ContentDifficulty(t)
	out := *c
	out.ComputeFac *= d
	out.BitFac *= d
	out.EnergyFac *= d
	out.AccFactor /= math.Sqrt(d)
	return &out
}

// Measurement is one noisy profiling observation of a clip configuration.
type Measurement struct {
	Acc       float64 // observed mAP
	ProcTime  float64 // observed per-frame processing time (s)
	Bits      float64 // observed bits per frame
	Bandwidth float64 // observed uplink demand (bits/s)
	Compute   float64 // observed TFLOPS
	Power     float64 // observed W
}

// Measurer abstracts where profiling measurements come from: the live
// Profiler, or a recorded trace replayed by the trace package.
type Measurer interface {
	Measure(c *Clip, cfg Config) Measurement
}

// Profiler takes noisy measurements of clips. NoiseStd is the relative
// standard deviation of multiplicative measurement noise (default 2%).
type Profiler struct {
	NoiseStd float64
	Clock    float64 // advances with every measurement (content drift)
	rng      *rand.Rand
}

// NewProfiler returns a profiler with the given relative noise level.
func NewProfiler(noiseStd float64, rng *rand.Rand) *Profiler {
	if noiseStd < 0 {
		noiseStd = 0.02
	}
	return &Profiler{NoiseStd: noiseStd, rng: rng}
}

// Measure observes clip c at cfg, applying content drift and measurement
// noise to the ground-truth curves.
func (p *Profiler) Measure(c *Clip, cfg Config) Measurement {
	p.Clock += 1.0 // each profiling run covers ~1 s of video
	diff := c.ContentDifficulty(p.Clock)
	noise := func() float64 { return 1 + p.NoiseStd*p.rng.NormFloat64() }
	bits := c.BitsPerFrame(cfg.Resolution) * diff * noise()
	proc := c.ProcTime(cfg.Resolution) * diff * noise()
	return Measurement{
		Acc:       clamp01(c.Accuracy(cfg) / math.Sqrt(diff) * noise()),
		ProcTime:  proc,
		Bits:      bits,
		Bandwidth: bits * cfg.FPS,
		Compute:   c.Compute(cfg) * diff * noise(),
		Power:     c.Power(cfg) * diff * noise(),
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
