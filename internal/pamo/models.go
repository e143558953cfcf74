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

// encodeCfg maps a configuration onto the GP input space [0,1]³
// (resolution, fps, ROI fraction — the last constant at 1 unless the ROI
// extension is enabled).
func encodeCfg(c videosim.Config) []float64 {
	rLo := videosim.Resolutions[0]
	rHi := videosim.Resolutions[len(videosim.Resolutions)-1]
	sLo := videosim.FrameRates[0]
	sHi := videosim.FrameRates[len(videosim.FrameRates)-1]
	roi := c.ROI
	if roi <= 0 || roi > 1 {
		roi = 1
	}
	return []float64{
		(c.Resolution - rLo) / (rHi - rLo),
		(c.FPS - sLo) / (sHi - sLo),
		roi,
	}
}

// modelSpec selects the outcome-model family and telemetry sinks for new
// clip models. The zero value is the exact GP with no telemetry — the
// configuration every golden run pins.
type modelSpec struct {
	sparse    bool
	sparseOpt gp.SparseOptions
	// gpObs/gpInducing/gpForget receive GP lifecycle counts
	// (gp_obs_total / gp_inducing_total / gp_forget_total). Nil-safe.
	gpObs      *obs.Counter
	gpInducing *obs.Counter
	gpForget   *obs.Counter
}

// clipModels holds the outcome models of one video source over the encoded
// configuration space. The profiler measures all five metrics at the same
// configurations, so they share one set of inputs; targets are standardized
// per metric (scale), so the kernel variance ≈ 1 regardless of a metric's
// physical scale.
//
// The exact family (the default; golden-pinned) conditions the five metrics
// as the target columns of one gp.Multi: one Cholesky factor, one
// cross-covariance cache and one posterior covariance per query set serve
// them all. The sparse family keeps one SparseGP per metric, because its
// MaxObs forgetting depends on the targets, so the retained inputs diverge.
// Both families hold identical hyperparameters for every metric: nothing
// tunes them per metric.
type clipModels struct {
	exact *gp.Multi                // exact family: one column per metric
	cache *gp.CrossCache           // exact only: memoized k(x, X) for pool scoring
	sp    [numMetrics]*gp.SparseGP // sparse family: one model per metric
	spec  modelSpec
	// fed counts how many of allData's points have been conditioned into
	// the models. The exact model's N() equals fed, but a sparse model's N()
	// shrinks under the MaxObs forgetting budget, so the refit prefix
	// bookkeeping must not read it back from a regressor.
	fed       int
	lastStats [numMetrics]gp.SparseStats // last synced lifecycle counters
	scale     [numMetrics]float64
	xs        [][]float64
	ys        [numMetrics][]float64
	// vxs/vys are virtual observations borrowed from a warm-start donor
	// (see warmFrom). They condition the models ahead of the clip's own
	// measurements but are down-weighted: while any virtual point remains,
	// the models run at inflate× the pooled observation noise, so real
	// measurements overrule them locally as they arrive. Once the clip has
	// twice as many real points as virtual ones, the virtual set retires and
	// the noise floor returns to baseNoise.
	vxs       [][]float64
	vys       [numMetrics][]float64
	baseNoise float64
	inflate   float64 // > 0 only while the warm-start lifecycle is active
	forceFull bool    // next refit must refactorize (dataset shape or noise changed)
	// cholInc/cholFull count which refit path conditioned the models:
	// incremental Cholesky extensions vs full refactorizations — per clip
	// for the exact family, per metric model for the sparse one. Nil (the
	// untelemetered default) is a no-op.
	cholInc  *obs.Counter
	cholFull *obs.Counter
	// chk, when non-nil, verifies the posterior after every incremental
	// Cholesky extension (finite means, PSD covariance at the new inputs).
	chk *check.Checker
}

// outcomeKernel is the kernel every outcome model starts from.
func outcomeKernel() kernel.Kernel {
	k := kernel.NewMatern52(3)
	p := k.LogParams()
	p[1], p[2], p[3] = math.Log(0.4), math.Log(0.4), math.Log(0.5)
	k.SetLogParams(p)
	return k
}

// newClipModels builds one clip's outcome models of the family spec
// selects. mvn, when non-nil, receives their posterior-sampling fallbacks
// so the owning scheduler can attribute them to itself (see
// gp.Multi.SetFallbackCounter).
func newClipModels(spec modelSpec, mvn *atomic.Uint64, cholInc, cholFull *obs.Counter, chk *check.Checker) *clipModels {
	c := &clipModels{spec: spec, baseNoise: 1e-3, cholInc: cholInc, cholFull: cholFull, chk: chk}
	for mi := range c.scale {
		c.scale[mi] = 1
	}
	if spec.sparse {
		for mi := range c.sp {
			c.sp[mi] = gp.NewSparse(outcomeKernel(), 1e-3, spec.sparseOpt)
		}
	} else {
		c.exact = gp.NewMulti(outcomeKernel(), 1e-3, int(numMetrics))
		c.cache = c.exact.NewCrossCache()
	}
	c.setFallbackCounter(mvn)
	return c
}

// model is what the clip-level lifecycle reads and sets on either family's
// models.
type model interface {
	gp.Hyperparams
	SetNoise(v float64)
	SetFallbackCounter(c *atomic.Uint64)
}

// models returns the clip's one exact model or its five sparse ones.
func (c *clipModels) models() []model {
	if c.exact != nil {
		return []model{c.exact}
	}
	out := make([]model, len(c.sp))
	for mi, sp := range c.sp {
		out[mi] = sp
	}
	return out
}

// setFallbackCounter points every model's sampling-fallback counter at mvn.
func (c *clipModels) setFallbackCounter(mvn *atomic.Uint64) {
	for _, m := range c.models() {
		m.SetFallbackCounter(mvn)
	}
}

// hyper returns the clip's hyperparameters. Every sparse metric model holds
// the same ones, so the first speaks for all.
func (c *clipModels) hyper() gp.Hyperparams { return c.models()[0] }

// setHyper installs the kernel log-parameters lp (nil keeps the current
// ones) and the noise variance on every model.
func (c *clipModels) setHyper(lp []float64, noise float64) {
	for _, m := range c.models() {
		if lp != nil {
			m.Kernel().SetLogParams(lp)
		}
		m.SetNoise(noise)
	}
}

// addMeasurement records one profiling measurement at cfg.
func (c *clipModels) addMeasurement(cfg videosim.Config, o videosim.Measurement) {
	c.xs = append(c.xs, encodeCfg(cfg))
	for mi, y := range [numMetrics]float64{mAcc: o.Acc, mProc: o.ProcTime, mBits: o.Bits, mComp: o.Compute, mPow: o.Power} {
		c.ys[mi] = append(c.ys[mi], y)
	}
}

// warmFrom seeds unconditioned models from the models of similar clips
// (donors[0] most similar first): the kernel hyperparameters become the
// donors' pooled values (gp.PoolHyperparams — element-wise mean in log
// space), and up to keep observations of the first donor (the most similar
// clip) are injected as virtual points. Down-weighting is by noise
// inflation: the models run at inflate× the pooled noise variance until the
// virtual set retires, so the borrowed targets shape the prior mean without
// being trusted like real measurements. Reports false — leaving the models
// cold — when they already hold data or the donors' hyperparameters cannot
// be pooled.
func (c *clipModels) warmFrom(donors []*clipModels, keep int, inflate float64) bool {
	if len(c.xs) > 0 || c.fed > 0 {
		return false
	}
	hs := make([]gp.Hyperparams, 0, len(donors))
	var first *clipModels
	for _, d := range donors {
		if d != nil {
			if first == nil {
				first = d
			}
			hs = append(hs, d.hyper())
		}
	}
	lp, noise, ok := gp.PoolHyperparams(hs)
	if !ok {
		return false
	}
	c.baseNoise = noise
	c.inflate = max(inflate, 1)
	c.setHyper(lp, noise*c.inflate)
	// Evenly spaced subsample of the most similar donor's raw dataset, so
	// the virtual points span its covered input region deterministically.
	if d := first; keep > 0 && len(d.xs) > 0 {
		keep = min(keep, len(d.xs))
		for k := 0; k < keep; k++ {
			i := k * len(d.xs) / keep
			c.vxs = append(c.vxs, append([]float64(nil), d.xs[i]...))
			for mi := range c.vys {
				c.vys[mi] = append(c.vys[mi], d.ys[mi][i])
			}
		}
	}
	c.forceFull = true
	return true
}

// maybeRetire drops the virtual donor points once real measurements
// outnumber them 2:1, restoring the base noise floor. The next refit pays
// one full refactorization for the dataset change.
func (c *clipModels) maybeRetire() {
	if len(c.vxs) == 0 || len(c.xs) < 2*len(c.vxs) {
		return
	}
	c.vxs, c.vys = nil, [numMetrics][]float64{}
	c.setHyper(nil, c.baseNoise)
	c.inflate = 0
	c.forceFull = true
}

// allData returns the conditioning dataset: virtual donor points first
// (a stable prefix, so the incremental-Cholesky path keeps working as real
// measurements append behind them), then the clip's own measurements.
func (c *clipModels) allData() ([][]float64, [numMetrics][]float64) {
	if len(c.vxs) == 0 {
		return c.xs, c.ys
	}
	xs := append(append(make([][]float64, 0, len(c.vxs)+len(c.xs)), c.vxs...), c.xs...)
	var ys [numMetrics][]float64
	for mi := range ys {
		ys[mi] = append(append(make([]float64, 0, len(xs)), c.vys[mi]...), c.ys[mi]...)
	}
	return xs, ys
}

// refit standardizes the targets and re-conditions the models. Models that
// are already conditioned on a prefix of the data — the shape of every
// per-observation refit, since a clip only ever appends measurements — are
// extended through the incremental fast path (O(n²) per new point for the
// exact model, O(nm + m²) per metric for the sparse one) and then handed the
// rescaled targets. Only the first fit and hyperparameter changes pay the
// full refactorization.
func (c *clipModels) refit() error {
	err := c.refitData()
	c.syncStats()
	return err
}

func (c *clipModels) refitData() error {
	c.maybeRetire()
	xs, ys := c.allData()
	if len(xs) == 0 {
		return fmt.Errorf("pamo: refit with no data")
	}
	var scaled [numMetrics][]float64
	var rescale [numMetrics]float64
	for mi, y := range ys {
		sd := std(y)
		if sd < 1e-12 {
			sd = math.Abs(mean(y))
			if sd < 1e-12 {
				sd = 1
			}
		}
		rescale[mi] = c.scale[mi] / sd
		c.scale[mi] = sd
		scaled[mi] = make([]float64, len(y))
		for i, v := range y {
			scaled[mi][i] = v / sd
		}
	}
	if c.exact == nil {
		return c.refitSparse(xs, scaled, rescale)
	}
	if n := c.exact.N(); !c.forceFull && n > 0 && n <= len(xs) {
		refactored, err := c.exact.Append(xs[n:], scaled[:])
		c.fed = len(xs)
		if err != nil {
			c.cholFull.Inc()
			return c.exact.Fit(xs, scaled[:])
		}
		c.cholInc.Add(uint64(len(xs) - n - refactored))
		c.cholFull.Add(uint64(refactored))
		if c.chk == nil || n == len(xs) {
			return nil
		}
		mu, cov := c.exact.PredictBatch(xs[n:])
		for mi := range numMetrics {
			if err := c.verifyPosterior(mu.Row(int(mi)), cov); err != nil {
				return err
			}
		}
		return nil
	}
	c.cholFull.Inc()
	c.forceFull = false
	c.fed = len(xs)
	return c.exact.Fit(xs, scaled[:])
}

// refitSparse conditions each metric's sparse model on the suffix of points
// it has not seen. The standardization scale moves with every new
// measurement, and a sparse model may have forgotten observations — so
// instead of the exact path's full-column targets, the retained targets are
// rescaled in place (ScaleTargets, O(m²)) and only the new points are fed.
// The fed counter, not a model's shrinking N(), tracks the consumed prefix.
func (c *clipModels) refitSparse(xs [][]float64, scaled [numMetrics][]float64, rescale [numMetrics]float64) error {
	n := c.fed
	c.fed = len(xs)
	if c.forceFull || n == 0 || n > len(xs) || c.sp[0].N() == 0 {
		c.forceFull = false
		for mi, sp := range c.sp {
			c.cholFull.Inc()
			if err := sp.Fit(xs, scaled[mi]); err != nil {
				return err
			}
		}
		return nil
	}
	for mi, sp := range c.sp {
		if err := sp.ScaleTargets(rescale[mi]); err != nil {
			return err
		}
		for i := n; i < len(xs); i++ {
			if err := sp.AddObservation(xs[i], scaled[mi][i]); err != nil {
				return err
			}
			c.cholInc.Inc()
		}
		if c.chk != nil && n < len(xs) {
			if err := c.verifyPosterior(sp.PredictBatch(xs[n:])); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncStats forwards the models' lifecycle deltas into the owning
// scheduler's counters: conditioned-observation counts for both model
// families — per metric model, so the exact model's five columns count five
// times — and inducing/forget events for the sparse one. Nil counter
// handles (no recorder) make this free.
func (c *clipModels) syncStats() {
	if c.exact != nil {
		if f := uint64(c.fed); f > c.lastStats[0].Obs {
			c.spec.gpObs.Add(uint64(numMetrics) * (f - c.lastStats[0].Obs))
			c.lastStats[0].Obs = f
		}
		return
	}
	for mi, sp := range c.sp {
		st := sp.Stats()
		last := c.lastStats[mi]
		c.spec.gpObs.Add(st.Obs - last.Obs)
		c.spec.gpInducing.Add(st.InducingAdds - last.InducingAdds)
		c.spec.gpForget.Add(st.Forgets - last.Forgets)
		c.lastStats[mi] = st
	}
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
// units. It uses the variance-free prediction path: candidate planning calls
// this for every clip of every pool candidate, and the variance solve of a
// full Predict is pure waste there. The exact model routes through the
// memoized cross-covariance cache (O(n) amortized, one lookup for all five
// metrics); sparse models read the O(m) inducing representation directly.
func (c *clipModels) means(cfg videosim.Config) [numMetrics]float64 {
	x := encodeCfg(cfg)
	var mu [numMetrics]float64
	if c.exact != nil {
		c.cache.PredictMean(x, mu[:])
	} else {
		for mi, sp := range c.sp {
			mu[mi] = sp.PredictMean(x)
		}
	}
	for mi := range mu {
		mu[mi] *= c.scale[mi]
	}
	return mu
}

// meanVar returns every metric's posterior mean and variance at config c in
// physical units. The draw-reuse probe calls this for every universe point:
// unlike means it pays for the variance solve, because detecting posterior
// movement needs the second moment too.
func (c *clipModels) meanVar(cfg videosim.Config) (mu, v [numMetrics]float64) {
	x := encodeCfg(cfg)
	if c.exact != nil {
		shared := c.exact.Predict(x, mu[:])
		for mi := range v {
			v[mi] = shared
		}
	} else {
		for mi, sp := range c.sp {
			mu[mi], v[mi] = sp.Predict(x)
		}
	}
	for mi, s := range c.scale {
		mu[mi] *= s
		v[mi] = v[mi] * s * s
	}
	return mu, v
}

// sampleJoint draws n joint posterior samples (physical units) of every
// metric at the given configs: result[metric][sample][point]. Metric mi
// draws from rngs[mi]. The exact model builds the posterior covariance and
// its factor once for all five metrics.
func (c *clipModels) sampleJoint(cfgs []videosim.Config, n int, rngs [numMetrics]*rand.Rand) [numMetrics][][]float64 {
	pts := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = encodeCfg(cfg)
	}
	ws := mat.GetWorkspace()
	var out [numMetrics][][]float64
	if c.exact != nil {
		copy(out[:], c.exact.SampleJointWith(ws, c.cache, pts, n, rngs[:]))
	} else {
		for mi, sp := range c.sp {
			ws.Reset()
			out[mi] = sp.SampleJointWith(ws, pts, n, rngs[mi])
		}
	}
	mat.PutWorkspace(ws)
	for mi, rows := range out {
		for _, row := range rows {
			for i := range row {
				row[i] *= c.scale[mi]
			}
		}
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func std(xs []float64) float64 {
	m := mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// rebind re-points a bank-persisted model set at the owning scheduler's
// telemetry: fallback counter, Cholesky-path counters, GP lifecycle
// counters, and checker. Without it a reused model would keep attributing
// its work to the scheduler that created it. The model family is part of
// the persisted state and is deliberately left alone — a banked exact model
// stays exact even under a sparse-configured scheduler.
func (c *clipModels) rebind(spec modelSpec, mvn *atomic.Uint64, cholInc, cholFull *obs.Counter, chk *check.Checker) {
	c.cholInc, c.cholFull, c.chk = cholInc, cholFull, chk
	c.spec.gpObs, c.spec.gpInducing, c.spec.gpForget = spec.gpObs, spec.gpInducing, spec.gpForget
	c.setFallbackCounter(mvn)
}

// setIncumbent points every sparse metric model's forgetting rule at the
// clip's current incumbent configuration, so the MaxObs budget drops the
// observation least informative about the region the schedule actually
// uses. No-op for exact models.
func (c *clipModels) setIncumbent(cfg videosim.Config) {
	if c.exact != nil {
		return
	}
	x := encodeCfg(cfg)
	for _, sp := range c.sp {
		sp.SetIncumbent(x)
	}
}
