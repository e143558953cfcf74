// Package pamo implements the paper's core contribution: the
// preference-aware multi-objective Bayesian-optimization scheduler
// (Algorithm 2). It owns per-clip Gaussian-process outcome models, the
// preference model learned from decision-maker comparisons, the zero-jitter
// scheduling of Algorithm 1, and the qNEI-driven solution search.
package pamo

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// metric indexes the per-clip quantities the profiler can measure and the
// outcome models must learn.
type metric int

const (
	mAcc  metric = iota // mAP
	mProc               // per-frame processing time (s)
	mBits               // encoded frame size (bits)
	mComp               // computing power (TFLOPS)
	mPow                // power (W)
	numMetrics
)

// EncodeConfig maps a configuration onto the outcome models' input space
// [0,1]² (resolution, fps), each knob scaled over its grid's range.
func EncodeConfig(c videosim.Config) []float64 {
	return encodeCfgTo(make([]float64, 2), c)
}

// encodeCfgTo is EncodeConfig into the caller's 2-vector dst.
func encodeCfgTo(dst []float64, c videosim.Config) []float64 {
	rLo := videosim.Resolutions[0]
	rHi := videosim.Resolutions[len(videosim.Resolutions)-1]
	sLo := videosim.FrameRates[0]
	sHi := videosim.FrameRates[len(videosim.FrameRates)-1]
	dst[0] = (c.Resolution - rLo) / (rHi - rLo)
	dst[1] = (c.FPS - sLo) / (sHi - sLo)
	return dst
}

// modelSinks are where a clip's outcome models report: posterior-sampling
// fallbacks, GP lifecycle and Cholesky-path counters, and the invariant
// checker. The zero value reports nowhere — the configuration every golden
// run pins.
type modelSinks struct {
	// mvn receives posterior-sampling fallbacks so the owning scheduler can
	// attribute them to itself (see gp.Multi.SetFallbackCounter).
	mvn *atomic.Uint64
	// gpObs counts conditioned observations per metric (gp_obs_total), so
	// the model's five columns count five times.
	gpObs *obs.Counter
	// cholInc/cholFull count which refit path conditioned the model:
	// incremental Cholesky extensions vs full refactorizations, per clip.
	cholInc  *obs.Counter
	cholFull *obs.Counter
	// chk, when non-nil, verifies the posterior after every incremental
	// refit (finite means, PSD covariance jointly at the inputs it added).
	chk *check.Checker
}

// clipModels holds the outcome models of one video source over the encoded
// configuration space. The profiler measures all five metrics at the same
// configurations, so they are the target columns of one exact gp.Multi: one
// Cholesky factor, one cross-covariance cache and one posterior covariance
// per query set serve them all. Targets are standardized per metric
// (scale), so the kernel variance ≈ 1 regardless of a metric's physical
// scale; nothing tunes the hyperparameters per metric.
type clipModels struct {
	model *gp.Multi      // one column per metric
	cache *gp.CrossCache // memoized k(x, X) for pool scoring
	modelSinks
	// counted is how many conditioned points gp_obs_total has seen.
	counted int
	scale   [numMetrics]float64
	xs      [][]float64
	ys      [numMetrics][]float64
	// scaled is refitData's standardized copy of ys, rewritten per refit.
	scaled [numMetrics][]float64
	// Scratch of sampleJoint: the encoded queries and one PCG stream per
	// metric, reseeded per call.
	pts  [][]float64
	enc  []float64
	pcg  [numMetrics]rand.PCG
	rngs [numMetrics]*rand.Rand
}

// NewOutcomeGP returns an unconditioned outcome model with one target
// column per measured metric, over EncodeConfig's input space: a Matérn-5/2
// kernel with lengthscales 0.4 and noise 1e-3. The hyperparameters are
// fixed: models live for one solve and nothing re-tunes them.
func NewOutcomeGP(targets int) *gp.Multi {
	k := kernel.NewMatern52(2)
	p := k.LogParams()
	p[1], p[2] = math.Log(0.4), math.Log(0.4)
	k.SetLogParams(p)
	return gp.NewMulti(k, 1e-3, targets)
}

// newClipModels builds one clip's unconditioned outcome models reporting to
// sinks.
func newClipModels(sinks modelSinks) *clipModels {
	c := &clipModels{model: NewOutcomeGP(int(numMetrics)), modelSinks: sinks}
	c.model.SetFallbackCounter(sinks.mvn)
	c.cache = c.model.NewCrossCache()
	for mi := range c.scale {
		c.scale[mi] = 1
		c.rngs[mi] = rand.New(&c.pcg[mi])
	}
	return c
}

// addMeasurement records one profiling measurement at cfg.
func (c *clipModels) addMeasurement(cfg videosim.Config, o videosim.Measurement) {
	c.xs = append(c.xs, EncodeConfig(cfg))
	for mi, y := range [numMetrics]float64{mAcc: o.Acc, mProc: o.ProcTime, mBits: o.Bits, mComp: o.Compute, mPow: o.Power} {
		c.ys[mi] = append(c.ys[mi], y)
	}
}

// refit standardizes the targets and re-conditions the model. A model
// already conditioned on a prefix of the data — the shape of every refit
// after the first, since a clip only ever appends measurements — is
// extended through the incremental fast path (O(n²) per new point) and then
// handed the rescaled targets. Only the first fit, and an extension the
// factor cannot absorb, pay the full refactorization. Refits of different
// clips may run concurrently.
func (c *clipModels) refit() error {
	err := c.refitData()
	// gp_obs_total counts conditioned points once per metric column.
	if n := c.model.N(); n > c.counted {
		c.gpObs.Add(uint64(numMetrics) * uint64(n-c.counted))
		c.counted = n
	}
	return err
}

func (c *clipModels) refitData() error {
	if len(c.xs) == 0 {
		return fmt.Errorf("pamo: refit with no data")
	}
	scaled := &c.scaled
	for mi, y := range c.ys {
		sd := stats.Std(y)
		if sd < 1e-12 {
			sd = math.Abs(stats.Mean(y))
			if sd < 1e-12 {
				sd = 1
			}
		}
		c.scale[mi] = sd
		scaled[mi] = scaled[mi][:0]
		for _, v := range y {
			scaled[mi] = append(scaled[mi], v/sd)
		}
	}
	if n := c.model.N(); n > 0 {
		refactored, err := c.model.Append(c.xs[n:], scaled[:])
		if err != nil {
			c.cholFull.Inc()
			return c.model.Fit(c.xs, scaled[:])
		}
		c.cholInc.Add(uint64(len(c.xs) - n - refactored))
		c.cholFull.Add(uint64(refactored))
		if c.chk == nil || n == len(c.xs) {
			return nil
		}
		mu, cov := c.model.PredictBatch(c.xs[n:])
		for mi := range numMetrics {
			if err := c.verifyPosterior(mu.Row(int(mi)), cov); err != nil {
				return err
			}
		}
		return nil
	}
	c.cholFull.Inc()
	return c.model.Fit(c.xs, scaled[:])
}

// verifyPosterior guards the incremental fast path: after an extension the
// posterior of one metric at the newly added inputs must have finite means
// and a positive semi-definite covariance, so a corrupted factor surfaces
// here immediately instead of as silently wrong acquisitions. Callers skip
// it without a checker (the common untelemetered configuration pays
// nothing).
func (c *clipModels) verifyPosterior(mu []float64, cov *mat.Matrix) error {
	if err := c.chk.Finite("gp_posterior_mean", mu...); err != nil {
		return err
	}
	return c.chk.PSDCov("gp_posterior_cov", cov)
}

// means returns every metric's posterior mean at config c in physical
// units. It uses the variance-free prediction path through the memoized
// cross-covariance cache (O(n) amortized, one lookup for all five metrics):
// candidate planning calls this for every clip of every pool candidate, and
// the variance solve of a full Predict is pure waste there.
func (c *clipModels) means(cfg videosim.Config) [numMetrics]float64 {
	var mu [numMetrics]float64
	c.cache.PredictMean(EncodeConfig(cfg), mu[:])
	for mi := range mu {
		mu[mi] *= c.scale[mi]
	}
	return mu
}

// sampleJoint draws joint posterior samples (physical units) of every
// metric at cfgs into the caller-owned rows: rows[metric][sample] is one
// len(cfgs)-long sample. Metric mi draws from the PCG stream (seed,
// stream+mi); the posterior covariance and its factor are built once for
// all five metrics. The clip's own scratch holds the encoded queries, so
// one goroutine at a time may sample a clip.
func (c *clipModels) sampleJoint(cfgs []videosim.Config, rows [numMetrics][][]float64, seed, stream uint64) {
	q := len(cfgs)
	c.enc = grow(c.enc, 2*q)
	c.pts = grow(c.pts, q)
	for j, cf := range cfgs {
		c.pts[j] = encodeCfgTo(c.enc[2*j:2*j+2:2*j+2], cf)
	}
	for mi := range c.pcg {
		c.pcg[mi].Seed(seed, stream+uint64(mi))
	}
	ws := mat.GetWorkspace()
	c.model.SampleJointWith(ws, c.cache, c.pts, rows[:], c.rngs[:])
	mat.PutWorkspace(ws)
	for mi, rs := range rows {
		for _, row := range rs {
			for i := range row {
				row[i] *= c.scale[mi]
			}
		}
	}
}
