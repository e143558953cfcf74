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
// metric GPs. The zero value is the exact GP with no telemetry — the
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

// metricGP is a GP over the encoded configuration space with target
// standardization, so kernel variance ≈ 1 regardless of the metric's
// physical scale. The underlying regressor is either the exact GP (the
// default; golden-pinned) or the inducing-point SparseGP, chosen by
// modelSpec at construction.
type metricGP struct {
	g     gp.Regressor
	exact *gp.GP         // non-nil iff g is the exact model
	sp    *gp.SparseGP   // non-nil iff g is the sparse model
	cache *gp.CrossCache // exact only: memoized k(x, X) for pool scoring
	spec  modelSpec
	// fed counts how many of allData's points have been conditioned into g.
	// The exact model's N() equals fed, but the sparse model's N() shrinks
	// under the MaxObs forgetting budget, so the refit prefix bookkeeping
	// must not read it back from the regressor.
	fed       int
	lastStats gp.SparseStats // last synced lifecycle counters (sparse only)
	scale     float64
	xs        [][]float64
	ys        []float64
	// vxs/vys are virtual observations borrowed from a warm-start donor
	// (see warmFrom). They condition the GP ahead of the model's own
	// measurements but are down-weighted: while any virtual point remains,
	// the GP runs at inflate× the pooled observation noise, so real
	// measurements overrule them locally as they arrive. Once the model has
	// twice as many real points as virtual ones, the virtual set retires and
	// the noise floor returns to baseNoise.
	vxs       [][]float64
	vys       []float64
	baseNoise float64
	inflate   float64 // > 0 only while the warm-start lifecycle is active
	forceFull bool    // next refit must refactorize (dataset shape or noise changed)
	// cholInc/cholFull count which refit path conditioned the GP:
	// incremental Cholesky extensions vs full refactorizations. Nil (the
	// untelemetered default) is a no-op.
	cholInc  *obs.Counter
	cholFull *obs.Counter
	// chk, when non-nil, verifies the posterior after every incremental
	// Cholesky extension (finite means, PSD covariance at the new inputs).
	chk *check.Checker
}

// newMetricGP builds one outcome GP of the family spec selects. mvn, when
// non-nil, receives this model's posterior-sampling fallbacks so the owning
// scheduler can attribute them to itself (see gp.SetFallbackCounter).
func newMetricGP(spec modelSpec, mvn *atomic.Uint64, cholInc, cholFull *obs.Counter, chk *check.Checker) *metricGP {
	k := kernel.NewMatern52(3)
	p := k.LogParams()
	p[1], p[2], p[3] = math.Log(0.4), math.Log(0.4), math.Log(0.5)
	k.SetLogParams(p)
	m := &metricGP{spec: spec, scale: 1, baseNoise: 1e-3, cholInc: cholInc, cholFull: cholFull, chk: chk}
	if spec.sparse {
		m.sp = gp.NewSparse(k, 1e-3, spec.sparseOpt)
		m.g = m.sp
	} else {
		m.exact = gp.New(k, 1e-3)
		m.cache = m.exact.NewCrossCache()
		m.g = m.exact
	}
	if mvn != nil {
		m.g.SetFallbackCounter(mvn)
	}
	return m
}

// add appends one observation.
func (m *metricGP) add(x []float64, y float64) {
	m.xs = append(m.xs, x)
	m.ys = append(m.ys, y)
}

// warmFrom seeds an unconditioned model from the models of similar clips:
// the kernel hyperparameters become the donors' pooled values
// (gp.PoolHyperparams — element-wise mean in log space), and up to keep
// observations of the first donor (the most similar clip) are injected as
// virtual points. Down-weighting is by noise inflation: the model runs at
// inflate× the pooled noise variance until the virtual set retires, so the
// borrowed targets shape the prior mean without being trusted like real
// measurements. Reports false — leaving the model cold — when it already
// holds data or the donors' hyperparameters cannot be pooled.
func (m *metricGP) warmFrom(donors []*metricGP, keep int, inflate float64) bool {
	if len(m.xs) > 0 || m.g.N() > 0 {
		return false
	}
	gs := make([]gp.Regressor, 0, len(donors))
	for _, d := range donors {
		if d != nil {
			gs = append(gs, d.g)
		}
	}
	lp, noise, ok := gp.PoolHyperparams(gs)
	if !ok {
		return false
	}
	m.g.Kernel().SetLogParams(lp)
	m.baseNoise = noise
	if inflate < 1 {
		inflate = 1
	}
	m.inflate = inflate
	m.g.SetNoise(noise * inflate)
	// Evenly spaced subsample of the most similar donor's raw dataset, so
	// the virtual points span its covered input region deterministically.
	if d := donors[0]; keep > 0 && d != nil && len(d.xs) > 0 {
		if keep > len(d.xs) {
			keep = len(d.xs)
		}
		for k := 0; k < keep; k++ {
			i := k * len(d.xs) / keep
			m.vxs = append(m.vxs, append([]float64(nil), d.xs[i]...))
			m.vys = append(m.vys, d.ys[i])
		}
	}
	m.forceFull = true
	return true
}

// maybeRetire drops the virtual donor points once real measurements
// outnumber them 2:1, restoring the base noise floor. The next refit pays
// one full refactorization for the dataset change.
func (m *metricGP) maybeRetire() {
	if len(m.vxs) == 0 || len(m.xs) < 2*len(m.vxs) {
		return
	}
	m.vxs, m.vys = nil, nil
	m.g.SetNoise(m.baseNoise)
	m.inflate = 0
	m.forceFull = true
}

// allData returns the conditioning dataset: virtual donor points first
// (a stable prefix, so the incremental-Cholesky path keeps working as real
// measurements append behind them), then the model's own measurements.
func (m *metricGP) allData() ([][]float64, []float64) {
	if len(m.vxs) == 0 {
		return m.xs, m.ys
	}
	xs := make([][]float64, 0, len(m.vxs)+len(m.xs))
	ys := make([]float64, 0, len(m.vys)+len(m.ys))
	xs = append(append(xs, m.vxs...), m.xs...)
	ys = append(append(ys, m.vys...), m.ys...)
	return xs, ys
}

// refit standardizes the targets and re-conditions the GP. A GP that is
// already conditioned on a prefix of the data — the shape of every
// per-observation refit, since metricGP only ever appends measurements — is
// extended through the incremental fast path (O(n²) per new point for the
// exact model, O(nm + m²) for the sparse one) and then handed the rescaled
// targets. Only the first fit and hyperparameter changes pay the full
// refactorization.
func (m *metricGP) refit() error {
	err := m.refitData()
	m.syncStats()
	return err
}

func (m *metricGP) refitData() error {
	m.maybeRetire()
	xs, ys := m.allData()
	if len(xs) == 0 {
		return fmt.Errorf("pamo: refit with no data")
	}
	prevScale := m.scale
	sd := std(ys)
	if sd < 1e-12 {
		sd = math.Abs(mean(ys))
		if sd < 1e-12 {
			sd = 1
		}
	}
	m.scale = sd
	scaled := make([]float64, len(ys))
	for i, y := range ys {
		scaled[i] = y / sd
	}
	if m.sp != nil {
		return m.refitSparse(xs, scaled, prevScale/sd)
	}
	if n := m.g.N(); !m.forceFull && n > 0 && n <= len(xs) {
		first := n
		for i := n; i < len(xs); i++ {
			if err := m.g.AddObservation(xs[i], scaled[i]); err != nil {
				m.cholFull.Inc()
				m.fed = len(xs)
				return m.g.Fit(xs, scaled)
			}
			m.cholInc.Inc()
		}
		m.fed = len(xs)
		if err := m.g.SetTargets(scaled); err != nil {
			return err
		}
		return m.verifyPosterior(xs, first)
	}
	m.cholFull.Inc()
	m.forceFull = false
	m.fed = len(xs)
	return m.g.Fit(xs, scaled)
}

// refitSparse conditions the sparse model on the suffix of points it has not
// seen. The standardization scale moves with every new measurement, and the
// sparse model may have forgotten observations — so instead of the exact
// path's full-vector SetTargets, the retained targets are rescaled in place
// (ScaleTargets, O(m²)) and only the new points are fed. The fed counter,
// not the model's shrinking N(), tracks the consumed prefix.
func (m *metricGP) refitSparse(xs [][]float64, scaled []float64, rescale float64) error {
	if n := m.fed; !m.forceFull && n > 0 && n <= len(xs) && m.sp.N() > 0 {
		first := n
		if err := m.sp.ScaleTargets(rescale); err != nil {
			return err
		}
		for i := n; i < len(xs); i++ {
			if err := m.sp.AddObservation(xs[i], scaled[i]); err != nil {
				return err
			}
			m.cholInc.Inc()
		}
		m.fed = len(xs)
		return m.verifyPosterior(xs, first)
	}
	m.cholFull.Inc()
	m.forceFull = false
	m.fed = len(xs)
	return m.sp.Fit(xs, scaled)
}

// syncStats forwards the regressor's lifecycle deltas into the owning
// scheduler's counters: conditioned-observation counts for both model
// families, inducing/forget events for the sparse one. Nil counter handles
// (no recorder) make this free.
func (m *metricGP) syncStats() {
	if m.sp == nil {
		if f := uint64(m.fed); f > m.lastStats.Obs {
			m.spec.gpObs.Add(f - m.lastStats.Obs)
			m.lastStats.Obs = f
		}
		return
	}
	st := m.sp.Stats()
	m.spec.gpObs.Add(st.Obs - m.lastStats.Obs)
	m.spec.gpInducing.Add(st.InducingAdds - m.lastStats.InducingAdds)
	m.spec.gpForget.Add(st.Forgets - m.lastStats.Forgets)
	m.lastStats = st
}

// verifyPosterior guards the incremental-Cholesky fast path: after
// Cholesky.Extend the posterior at the newly added inputs must have finite
// means and a positive semi-definite covariance, so a corrupted factor
// surfaces here immediately instead of as silently wrong acquisitions.
// No-op without a checker (the common untelemetered configuration pays
// nothing).
func (m *metricGP) verifyPosterior(xs [][]float64, from int) error {
	if m.chk == nil || from >= len(xs) {
		return nil
	}
	mu, cov := m.g.PredictBatch(xs[from:])
	if err := m.chk.Finite("gp_posterior_mean", mu...); err != nil {
		return err
	}
	return m.chk.PSDCov("gp_posterior_cov", cov)
}

// mean returns the posterior mean at config c in physical units. It uses
// the variance-free prediction path: candidate planning calls this for
// every clip of every pool candidate, and the variance solve of a full
// Predict is pure waste there. Exact models route through the memoized
// cross-covariance cache (O(n) amortized); sparse models read the O(m)
// inducing representation directly.
func (m *metricGP) mean(c videosim.Config) float64 {
	if m.sp != nil {
		return m.sp.PredictMean(encodeCfg(c)) * m.scale
	}
	return m.cache.PredictMean(encodeCfg(c)) * m.scale
}

// meanVar returns the posterior mean and variance at config c in physical
// units. The draw-reuse probe calls this for every universe point: unlike
// mean it pays for the variance solve, because detecting posterior movement
// needs the second moment too.
func (m *metricGP) meanVar(c videosim.Config) (float64, float64) {
	mu, v := m.g.Predict(encodeCfg(c))
	return mu * m.scale, v * m.scale * m.scale
}

// sampleJoint draws joint posterior samples (physical units) at the given
// configs: result[sample][point].
func (m *metricGP) sampleJoint(cfgs []videosim.Config, n int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		pts[i] = encodeCfg(c)
	}
	ws := mat.GetWorkspace()
	var out [][]float64
	if m.sp != nil {
		out = m.sp.SampleJointWith(ws, pts, n, rng)
	} else {
		out = m.exact.SampleJointWith(ws, m.cache, pts, n, rng)
	}
	mat.PutWorkspace(ws)
	for _, row := range out {
		for i := range row {
			row[i] *= m.scale
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

// clipModels bundles the five metric GPs of one video source.
type clipModels struct {
	m [numMetrics]*metricGP
}

func newClipModels(spec modelSpec, mvn *atomic.Uint64, cholInc, cholFull *obs.Counter, chk *check.Checker) *clipModels {
	var c clipModels
	for i := range c.m {
		c.m[i] = newMetricGP(spec, mvn, cholInc, cholFull, chk)
	}
	return &c
}

// addMeasurement records one profiling measurement at cfg.
func (c *clipModels) addMeasurement(cfg videosim.Config, obs videosim.Measurement) {
	x := encodeCfg(cfg)
	c.m[mAcc].add(x, obs.Acc)
	c.m[mProc].add(x, obs.ProcTime)
	c.m[mBits].add(x, obs.Bits)
	c.m[mComp].add(x, obs.Compute)
	c.m[mPow].add(x, obs.Power)
}

// warmFrom warm-starts every metric model from the corresponding models of
// the donor clips (donors[0] most similar first). Reports whether every
// metric pooled successfully; on a false return the models are a mix of
// warm and cold, which is safe — each metricGP either pooled or kept its
// defaults.
func (c *clipModels) warmFrom(donors []*clipModels, keep int, inflate float64) bool {
	all := true
	buf := make([]*metricGP, 0, len(donors))
	for i := range c.m {
		buf = buf[:0]
		for _, d := range donors {
			if d != nil {
				buf = append(buf, d.m[i])
			}
		}
		if !c.m[i].warmFrom(buf, keep, inflate) {
			all = false
		}
	}
	return all
}

// rebind re-points a bank-persisted model set at the owning scheduler's
// telemetry: fallback counter, Cholesky-path counters, GP lifecycle
// counters, and checker. Without it a reused model would keep attributing
// its work to the scheduler that created it. The model family is part of
// the persisted state and is deliberately left alone — a banked exact model
// stays exact even under a sparse-configured scheduler.
func (c *clipModels) rebind(spec modelSpec, mvn *atomic.Uint64, cholInc, cholFull *obs.Counter, chk *check.Checker) {
	for _, m := range c.m {
		m.cholInc, m.cholFull, m.chk = cholInc, cholFull, chk
		m.spec.gpObs, m.spec.gpInducing, m.spec.gpForget = spec.gpObs, spec.gpInducing, spec.gpForget
		m.g.SetFallbackCounter(mvn)
	}
}

// setIncumbent points every sparse metric model's forgetting rule at the
// clip's current incumbent configuration, so the MaxObs budget drops the
// observation least informative about the region the schedule actually
// uses. No-op for exact models.
func (c *clipModels) setIncumbent(cfg videosim.Config) {
	x := encodeCfg(cfg)
	for _, m := range c.m {
		if m.sp != nil {
			m.sp.SetIncumbent(x)
		}
	}
}

// refit re-conditions all five GPs.
func (c *clipModels) refit() error {
	for i := range c.m {
		if err := c.m[i].refit(); err != nil {
			return err
		}
	}
	return nil
}
