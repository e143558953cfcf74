package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optim"
)

// SparseOptions tunes the inducing-point approximation.
type SparseOptions struct {
	// MaxInducing caps the inducing set size m. Defaults to 64.
	MaxInducing int
	// ResidualTol stops greedy inducing selection once the largest
	// Nyström diagonal residual falls below ResidualTol times the mean
	// prior variance, and gates promotion of new observations into the
	// inducing set by the same relative threshold. Defaults to 1e-6.
	ResidualTol float64
	// MaxObs, when positive, budget-caps the observation set: every
	// AddObservation beyond the cap forgets the retained observation whose
	// leave-one-out impact on the incumbent's posterior is smallest.
	// 0 keeps every observation.
	MaxObs int
}

func (o SparseOptions) withDefaults() SparseOptions {
	if o.MaxInducing <= 0 {
		o.MaxInducing = 64
	}
	if o.ResidualTol <= 0 {
		o.ResidualTol = 1e-6
	}
	return o
}

// SparseStats are cumulative lifecycle counters for one SparseGP; the
// scheduler layer diffs them into its telemetry so the gp package stays free
// of the obs dependency.
type SparseStats struct {
	Obs          uint64 // observations conditioned (Fit points + AddObservation)
	InducingAdds uint64 // inducing points selected or promoted
	Forgets      uint64 // observations dropped by the MaxObs budget
}

// SparseGP is an inducing-point sparse Gaussian process regressor — a
// subset-of-regressors (SoR) posterior with the FITC variance correction —
// satisfying the same contract as the exact GP while predicting in O(m) /
// O(m²) and absorbing new observations in O(nm + m²) amortized (O(nm + m³)
// worst case, when a point is promoted into the inducing set), with m ≪ n.
//
// The posterior is parameterized by the inducing set Z (chosen greedily by
// pivoted-Cholesky/Nyström diagonal residual), P = K_uu + σ⁻²·K_uf·K_fu and
// its Cholesky factor (rank-1 updated per observation), and the running
// moments s1 = K_uf·1, sy = K_uf·y. Predictions:
//
//	μ(x)      = μ₀ + φ(x)ᵀ·α,              α = P⁻¹·σ⁻²·(sy − μ₀·s1)
//	cov(a,b)  = k(a,b) − φaᵀK_uu⁻¹φb + φaᵀP⁻¹φb
//
// where φ(x) = k(Z, x). With Z = X (m ≥ n) both collapse to the exact GP
// posterior — the equivalence FuzzSparseVsExactGP pins.
//
// Unlike the exact GP, dropping an observation does not invalidate the
// inducing locations: Z stores its own copies, so a forgotten point's
// location can keep anchoring the approximation.
type SparseGP struct {
	Kern     kernel.Kernel
	NoiseVar float64

	opt SparseOptions

	x           [][]float64
	y           mat.Vector
	mean        float64
	sumY, sumY2 float64

	z   [][]float64 // inducing inputs (owned copies)
	phi [][]float64 // phi[i][j] = k(x_i, z_j)
	kuu *mat.Matrix // prior inducing covariance K_uu
	luu *mat.Cholesky
	p   *mat.Matrix // K_uu + σ⁻²·K_uf·K_fu
	lp  *mat.Cholesky
	s1  mat.Vector // Σᵢ φᵢ
	sy  mat.Vector // Σᵢ yᵢ·φᵢ
	// lev[i] = φᵢᵀP⁻¹φᵢ, maintained by Sherman–Morrison through rank-1
	// changes of P so the forgetting rule ranks leverages in O(nm) instead
	// of O(nm²) per drop; recomputed exactly on every rebuild/promotion.
	lev   mat.Vector
	alpha mat.Vector
	gen   uint64

	selResidual float64 // max Nyström diagonal residual after selection

	incumbent []float64
	fallbacks *atomic.Uint64
	stats     SparseStats

	scratch mat.Vector // m-sized scratch for rank-1 factor updates
}

// NewSparse returns an unfitted sparse GP with the given kernel, noise
// variance, and approximation options.
func NewSparse(k kernel.Kernel, noiseVar float64, opt SparseOptions) *SparseGP {
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	return &SparseGP{Kern: k, NoiseVar: noiseVar, opt: opt.withDefaults()}
}

// SetFallbackCounter injects a per-owner counter incremented whenever this
// model's joint posterior sampling degrades to the deterministic mean.
func (s *SparseGP) SetFallbackCounter(c *atomic.Uint64) { s.fallbacks = c }

// M returns the number of inducing points.
func (s *SparseGP) M() int { return len(s.z) }

// N returns the number of retained training points.
func (s *SparseGP) N() int { return len(s.x) }

// X returns the retained training inputs (not a copy).
func (s *SparseGP) X() [][]float64 { return s.x }

// Y returns the retained training targets (not a copy).
func (s *SparseGP) Y() []float64 { return s.y }

// Noise returns the observation noise variance.
func (s *SparseGP) Noise() float64 { return s.NoiseVar }

// Generation identifies the current factorization epoch; it advances on
// every rebuild (Fit, hyperparameter refits, inducing promotion, forgetting)
// and stays put across plain incremental AddObservation updates.
func (s *SparseGP) Generation() uint64 { return s.gen }

// Fit conditions the sparse GP on inputs xs and targets ys, replacing any
// previous training data and reselecting the inducing set greedily.
func (s *SparseGP) Fit(xs [][]float64, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("gp: %d inputs vs %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return errors.New("gp: empty training set")
	}
	for i, x := range xs {
		if len(x) != s.Kern.Dim() {
			return fmt.Errorf("gp: input %d has dim %d, kernel wants %d", i, len(x), s.Kern.Dim())
		}
	}
	s.opt = s.opt.withDefaults()
	s.x = xs
	s.y = mat.Vector(ys).Clone()
	s.sumY, s.sumY2 = 0, 0
	for _, v := range s.y {
		s.sumY += v
		s.sumY2 += v * v
	}
	s.mean = s.sumY / float64(len(s.y))
	s.stats.Obs += uint64(len(xs))
	if err := s.refit(); err != nil {
		return err
	}
	s.stats.InducingAdds += uint64(len(s.z))
	return nil
}

// refit reselects the inducing set for the current data and hyperparameters
// and rebuilds every factor. O(n·m² + m³).
func (s *SparseGP) refit() error {
	s.selectInducing()
	return s.rebuild()
}

// selectInducing picks inducing points greedily by pivoted-Cholesky residual
// on the prior training covariance: each step takes the point with the
// largest remaining Nyström diagonal residual d_i = k(x_i,x_i) − ‖c_i‖²,
// stopping at MaxInducing or when max d falls under ResidualTol·scale.
// The raw cross-covariances k(x_i, z_j) evaluated along the way are kept as
// the phi rows, so rebuild pays no second pass of kernel evaluations.
func (s *SparseGP) selectInducing() {
	n := len(s.x)
	mCap := s.opt.MaxInducing
	if mCap > n {
		mCap = n
	}
	d := mat.NewVector(n)
	var scale float64
	for i, xi := range s.x {
		d[i] = s.Kern.Eval(xi, xi)
		scale += d[i]
	}
	scale /= float64(n)
	if scale <= 0 {
		scale = 1
	}
	tol := s.opt.ResidualTol * scale

	s.z = s.z[:0]
	s.phi = s.phi[:0]
	for i := 0; i < n; i++ {
		s.phi = append(s.phi, nil)
	}
	// c[i] is the partial pivoted-Cholesky row of point i; phi[i] the raw
	// cross-covariances to the pivots chosen so far.
	c := make([][]float64, n)
	picked := make([]bool, n)
	for len(s.z) < mCap {
		best, bd := -1, tol
		for i := 0; i < n; i++ {
			if !picked[i] && d[i] > bd {
				best, bd = i, d[i]
			}
		}
		if best < 0 {
			break
		}
		picked[best] = true
		j := len(s.z)
		s.z = append(s.z, append([]float64(nil), s.x[best]...))
		pivot := math.Sqrt(d[best])
		cb := c[best]
		for i := 0; i < n; i++ {
			raw := s.Kern.Eval(s.x[i], s.x[best])
			s.phi[i] = append(s.phi[i], raw)
			if picked[i] && i != best {
				c[i] = append(c[i], 0)
				continue
			}
			proj := raw
			for t := 0; t < j; t++ {
				proj -= c[i][t] * cb[t]
			}
			proj /= pivot
			c[i] = append(c[i], proj)
			d[i] -= proj * proj
			if d[i] < 0 {
				d[i] = 0
			}
		}
		d[best] = 0
	}
	s.selResidual = 0
	for i := 0; i < n; i++ {
		if !picked[i] && d[i] > s.selResidual {
			s.selResidual = d[i]
		}
	}
}

// rebuild recomputes every factor and running moment from z/phi/y, advancing
// the generation. O(n·m² + m³).
func (s *SparseGP) rebuild() error {
	s.gen++
	n, m := len(s.x), len(s.z)
	s.kuu = mat.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := s.Kern.Eval(s.z[i], s.z[j])
			s.kuu.Set(i, j, v)
			s.kuu.Set(j, i, v)
		}
	}
	luu, err := mat.CholJitter(s.kuu)
	if err != nil {
		return fmt.Errorf("gp: inducing covariance factorization: %w", err)
	}
	s.luu = luu

	s.p = s.kuu.Clone()
	inv := 1 / s.NoiseVar
	s.s1 = mat.NewVector(m)
	s.sy = mat.NewVector(m)
	for i := 0; i < n; i++ {
		phi := mat.Vector(s.phi[i])
		mat.SymRank1Update(s.p, phi, inv)
		yi := s.y[i]
		for j, v := range phi {
			s.s1[j] += v
			s.sy[j] += yi * v
		}
	}
	lp, err := mat.CholJitter(s.p)
	if err != nil {
		return fmt.Errorf("gp: inducing posterior factorization: %w", err)
	}
	s.lp = lp
	s.scratch = mat.NewVector(m)
	s.alpha = mat.NewVector(m)
	s.refreshAlpha()
	s.recomputeLeverages()
	return nil
}

// recomputeLeverages recomputes lev[i] = φᵢᵀP⁻¹φᵢ exactly. O(n·m²).
func (s *SparseGP) recomputeLeverages() {
	n := len(s.x)
	if cap(s.lev) < n {
		s.lev = mat.NewVector(n)
	}
	s.lev = s.lev[:n]
	for i := 0; i < n; i++ {
		v := mat.ForwardSolveTo(s.scratch, s.lp.L, s.phi[i])
		s.lev[i] = v.Dot(v)
	}
}

// refreshAlpha re-solves α = P⁻¹·σ⁻²·(sy − μ₀·s1) against the current
// factor. O(m²), allocation-free.
func (s *SparseGP) refreshAlpha() {
	inv := 1 / s.NoiseVar
	for j := range s.scratch {
		s.scratch[j] = inv * (s.sy[j] - s.mean*s.s1[j])
	}
	s.lp.SolveVecTo(s.alpha, s.scratch)
}

// AddObservation appends one training point incrementally: a new phi row
// (m kernel evaluations), a rank-1 update of P and its factor, and an O(m²)
// α re-solve — O(nm) only when the point's Nyström residual earns it a
// promotion into the inducing set (plus an O(m³) refactorization), and when
// the MaxObs budget forces a forget.
func (s *SparseGP) AddObservation(x []float64, y float64) error {
	if len(x) != s.Kern.Dim() {
		return fmt.Errorf("gp: input has dim %d, kernel wants %d", len(x), s.Kern.Dim())
	}
	if s.lp == nil {
		if len(s.x) == 0 {
			return s.Fit([][]float64{x}, []float64{y})
		}
		return ErrNotFitted
	}
	m := len(s.z)
	phi := make([]float64, m, m+1)
	for j, zj := range s.z {
		phi[j] = s.Kern.Eval(zj, x)
	}
	if m < s.opt.MaxInducing {
		// Promote x into the inducing set when the current set cannot
		// represent it: residual k(x,x) − ‖L_uu⁻¹φ‖² above the same
		// relative threshold the greedy selection used.
		kxx := s.Kern.Eval(x, x)
		v := mat.ForwardSolveTo(s.scratch, s.luu.L, phi)
		if resid := kxx - v.Dot(v); resid > s.opt.ResidualTol*kxx {
			promoted, err := s.promote(x, phi, kxx)
			if err != nil {
				return err
			}
			if !promoted {
				// Numerically singular K_uu extension: take the slow path —
				// append the observation and refit from scratch, which
				// reselects the inducing set on the enlarged data.
				s.x = append(s.x, x)
				s.y = append(s.y, y)
				s.sumY += y
				s.sumY2 += y * y
				s.mean = s.sumY / float64(len(s.y))
				s.stats.Obs++
				if err := s.refit(); err != nil {
					return err
				}
				if s.opt.MaxObs > 0 && len(s.x) > s.opt.MaxObs {
					return s.forgetOne()
				}
				return nil
			}
			phi = append(phi, kxx)
		}
	}

	// Sherman–Morrison leverage maintenance for P' = P + σ⁻²·φφᵀ, before
	// the structures change: lev_i ← lev_i − σ⁻²·(φᵢᵀw)²/(1 + σ⁻²·φᵀw),
	// and the new point's own leverage is φᵀw/(1 + σ⁻²·φᵀw).
	inv := 1 / s.NoiseVar
	w := s.lp.SolveVec(phi)
	denom := 1 + inv*mat.Vector(phi).Dot(w)
	for i := range s.lev {
		d := mat.Vector(s.phi[i]).Dot(w)
		s.lev[i] -= inv * d * d / denom
	}
	s.lev = append(s.lev, mat.Vector(phi).Dot(w)/denom)

	s.x = append(s.x, x)
	s.y = append(s.y, y)
	s.phi = append(s.phi, phi)
	s.sumY += y
	s.sumY2 += y * y
	s.mean = s.sumY / float64(len(s.y))
	for j, v := range phi {
		s.s1[j] += v
		s.sy[j] += y * v
	}
	mat.SymRank1Update(s.p, phi, inv)
	sigphi := mat.Vector(s.scratch[:len(phi)])
	for j, v := range phi {
		sigphi[j] = v * math.Sqrt(inv)
	}
	s.lp.Rank1Update(sigphi)
	s.refreshAlpha()
	s.stats.Obs++

	if s.opt.MaxObs > 0 && len(s.x) > s.opt.MaxObs {
		return s.forgetOne()
	}
	return nil
}

// promote adds x (with cross-covariances phi and prior variance kxx) as a
// new inducing point: extends K_uu and its factor, every stored phi row, the
// running moments, and rebuilds P's factor. O(nm + m³). Returns
// promoted=false (without touching any state) when the K_uu extension is
// numerically singular; the caller falls back to a full refit.
func (s *SparseGP) promote(x []float64, phi []float64, kxx float64) (promoted bool, err error) {
	m := len(s.z)
	if err := s.luu.Extend(phi, kxx); err != nil {
		return false, nil
	}
	s.gen++
	s.z = append(s.z, append([]float64(nil), x...))
	kuu := mat.NewMatrix(m+1, m+1)
	for i := 0; i < m; i++ {
		copy(kuu.Row(i)[:m], s.kuu.Row(i))
		kuu.Set(i, m, phi[i])
		kuu.Set(m, i, phi[i])
	}
	kuu.Set(m, m, kxx)
	s.kuu = kuu

	inv := 1 / s.NoiseVar
	p := mat.NewMatrix(m+1, m+1)
	for i := 0; i < m; i++ {
		copy(p.Row(i)[:m], s.p.Row(i))
	}
	var s1n, syn float64
	pcol := mat.NewVector(m + 1)
	for i := range s.x {
		v := s.Kern.Eval(s.x[i], x)
		s.phi[i] = append(s.phi[i], v)
		s1n += v
		syn += s.y[i] * v
		for j, pv := range s.phi[i] {
			pcol[j] += inv * v * pv
		}
	}
	for j := 0; j < m; j++ {
		p.Set(j, m, phi[j]+pcol[j])
		p.Set(m, j, phi[j]+pcol[j])
	}
	p.Set(m, m, kxx+pcol[m])
	s.p = p
	lp, err := mat.CholJitter(s.p)
	if err != nil {
		return false, fmt.Errorf("gp: inducing posterior factorization: %w", err)
	}
	s.lp = lp
	s.s1 = append(s.s1, s1n)
	s.sy = append(s.sy, syn)
	s.scratch = mat.NewVector(m + 1)
	s.alpha = mat.NewVector(m + 1)
	s.refreshAlpha()
	s.recomputeLeverages()
	s.stats.InducingAdds++
	return true, nil
}

// forgetOne drops the retained observation with the smallest leave-one-out
// impact on the incumbent's posterior (see DESIGN.md §16): with leverage
// h_i = σ⁻²·lev_i and LOO residual e_i = (y_i − μ(x_i))/(1 − h_i), removing
// observation i shifts the posterior mean at x* by σ⁻²·φ(x*)ᵀP⁻¹φᵢ·e_i —
// the sparse analogue of the exact closed-form LOO in loo.go. Without an
// incumbent the self-impact h_i·|e_i| at x_i is used. O(nm + m³).
func (s *SparseGP) forgetOne() error {
	n := len(s.x)
	if n <= 1 {
		return nil
	}
	inv := 1 / s.NoiseVar
	var u mat.Vector
	if s.incumbent != nil {
		phiStar := mat.NewVector(len(s.z))
		for j, zj := range s.z {
			phiStar[j] = s.Kern.Eval(zj, s.incumbent)
		}
		u = s.lp.SolveVec(phiStar)
	}
	victim, best := -1, math.Inf(1)
	for i := 0; i < n; i++ {
		h := inv * s.lev[i]
		if h > 0.999 {
			h = 0.999
		} else if h < 0 {
			h = 0
		}
		e := (s.y[i] - s.mean - mat.Vector(s.phi[i]).Dot(s.alpha)) / (1 - h)
		var impact float64
		if u != nil {
			impact = inv * math.Abs(mat.Vector(s.phi[i]).Dot(u)*e)
		} else {
			impact = h * math.Abs(e)
		}
		if impact < best {
			victim, best = i, impact
		}
	}

	phi := mat.Vector(s.phi[victim])
	y := s.y[victim]
	// Sherman–Morrison downdate of the leverages for P' = P − σ⁻²·φφᵀ.
	w := s.lp.SolveVec(phi)
	denom := 1 - inv*phi.Dot(w)
	if denom > 1e-12 {
		for i := range s.lev {
			d := mat.Vector(s.phi[i]).Dot(w)
			s.lev[i] += inv * d * d / denom
		}
	}
	for j, v := range phi {
		s.s1[j] -= v
		s.sy[j] -= y * v
	}
	s.sumY -= y
	s.sumY2 -= y * y
	mat.SymRank1Update(s.p, phi, -inv)
	s.x = append(s.x[:victim], s.x[victim+1:]...)
	s.y = append(s.y[:victim], s.y[victim+1:]...)
	s.phi = append(s.phi[:victim], s.phi[victim+1:]...)
	s.lev = append(s.lev[:victim], s.lev[victim+1:]...)
	s.mean = s.sumY / float64(len(s.y))
	s.stats.Forgets++
	// Rank-1 Cholesky downdates are numerically unstable; refactor the
	// (small, m×m) posterior instead. Leverages were downdated above, so
	// if the refactorization drifted they are still a valid ranking.
	s.gen++
	lp, err := mat.CholJitter(s.p)
	if err != nil {
		return fmt.Errorf("gp: inducing posterior factorization: %w", err)
	}
	s.lp = lp
	s.refreshAlpha()
	return nil
}

// SetTargets replaces the training targets in place (same retained inputs)
// and re-solves α in O(nm + m²) without touching the factors.
func (s *SparseGP) SetTargets(ys []float64) error {
	if s.lp == nil {
		return ErrNotFitted
	}
	if len(ys) != len(s.x) {
		return fmt.Errorf("gp: %d targets for %d inputs", len(ys), len(s.x))
	}
	if &ys[0] != &s.y[0] {
		s.y = mat.Vector(ys).Clone()
	}
	s.sumY, s.sumY2 = 0, 0
	for j := range s.sy {
		s.sy[j] = 0
	}
	for i, v := range s.y {
		s.sumY += v
		s.sumY2 += v * v
		for j, pv := range s.phi[i] {
			s.sy[j] += v * pv
		}
	}
	s.mean = s.sumY / float64(len(s.y))
	s.refreshAlpha()
	return nil
}

// Predict returns the posterior mean and FITC-corrected variance of the
// latent function at x in O(m²). The variance excludes observation noise.
func (s *SparseGP) Predict(x []float64) (mu, variance float64) {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	m := len(s.z)
	phi := mat.NewVector(m)
	for j, zj := range s.z {
		phi[j] = s.Kern.Eval(zj, x)
	}
	mu = s.mean + phi.Dot(s.alpha)
	v := mat.ForwardSolve(s.luu.L, phi)
	w := mat.ForwardSolve(s.lp.L, phi)
	variance = s.Kern.Eval(x, x) - v.Dot(v) + w.Dot(w)
	if variance < 0 {
		variance = 0
	}
	return mu, variance
}

// PredictMean returns only the posterior mean at x: m kernel evaluations and
// one dot product, allocation-free — the sparse counterpart of the exact
// GP's O(n) hot-loop path.
func (s *SparseGP) PredictMean(x []float64) float64 {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	var acc float64
	for j, zj := range s.z {
		acc += s.Kern.Eval(zj, x) * s.alpha[j]
	}
	return s.mean + acc
}

// PredictBatch returns the joint posterior mean vector and FITC-corrected
// covariance matrix of the latent function at the query points in
// O(q·m² + q²·m) — sub-quadratic in n, which no longer appears at all.
func (s *SparseGP) PredictBatch(xs [][]float64) (mu mat.Vector, cov *mat.Matrix) {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	q, m := len(xs), len(s.z)
	vt := mat.NewMatrix(q, m)
	wt := mat.NewMatrix(q, m)
	mu = mat.NewVector(q)
	phi := mat.NewVector(m)
	for j := 0; j < q; j++ {
		for t, zt := range s.z {
			phi[t] = s.Kern.Eval(zt, xs[j])
		}
		mat.ForwardSolveTo(vt.Row(j), s.luu.L, phi)
		mat.ForwardSolveTo(wt.Row(j), s.lp.L, phi)
		mu[j] = s.mean + phi.Dot(s.alpha)
	}
	cov = mat.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		va, wa := vt.Row(a), wt.Row(a)
		for b := a; b < q; b++ {
			acc := s.Kern.Eval(xs[a], xs[b])
			vb, wb := vt.Row(b), wt.Row(b)
			for i := 0; i < m; i++ {
				acc += wa[i]*wb[i] - va[i]*vb[i]
			}
			cov.Set(a, b, acc)
			cov.Set(b, a, acc)
		}
	}
	return mu, cov
}

// PredictBatchWith is PredictBatch with workspace-backed outputs: the
// returned mean vector and covariance matrix live in ws and are valid only
// until the next ws.Reset. Results are bit-identical to PredictBatch; a warm
// workspace makes the call allocation-free.
func (s *SparseGP) PredictBatchWith(ws *mat.Workspace, xs [][]float64) (mu mat.Vector, cov *mat.Matrix) {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	q, m := len(xs), len(s.z)
	vt := ws.Mat(q, m)
	wt := ws.Mat(q, m)
	mu = ws.Vec(q)
	phi := ws.Vec(m)
	for j := 0; j < q; j++ {
		for t, zt := range s.z {
			phi[t] = s.Kern.Eval(zt, xs[j])
		}
		mat.ForwardSolveTo(vt.Row(j), s.luu.L, phi)
		mat.ForwardSolveTo(wt.Row(j), s.lp.L, phi)
		mu[j] = s.mean + phi.Dot(s.alpha)
	}
	cov = ws.Mat(q, q)
	for a := 0; a < q; a++ {
		va, wa := vt.Row(a), wt.Row(a)
		for b := a; b < q; b++ {
			acc := s.Kern.Eval(xs[a], xs[b])
			vb, wb := vt.Row(b), wt.Row(b)
			for i := 0; i < m; i++ {
				acc += wa[i]*wb[i] - va[i]*vb[i]
			}
			cov.Set(a, b, acc)
			cov.Set(b, a, acc)
		}
	}
	return mu, cov
}

// SampleJoint draws nSamples correlated samples from the joint posterior at
// xs. The result is nSamples×len(xs).
func (s *SparseGP) SampleJoint(xs [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	return s.SampleJointWith(ws, xs, nSamples, rng)
}

// SampleJointWith is SampleJoint with workspace-backed intermediates: only
// the returned sample rows are allocated. Draws are bit-identical to
// SampleJoint given the same rng state.
func (s *SparseGP) SampleJointWith(ws *mat.Workspace, xs [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	mu, cov := s.PredictBatchWith(ws, xs)
	out := newRows(nSamples, len(mu))
	DrawMVN(ws, out, mu, cov, rng, s.fallbacks)
	return out
}

// LogMarginalLikelihood returns log p(y | X, θ) under the SoR likelihood
// y ~ N(μ₀, Q_ff + σ²I), evaluated in O(m²) via the Woodbury identity:
// the quadratic form is σ⁻²·rᵀr − bᵀP⁻¹b and the log-determinant is
// log|P| − log|K_uu| + n·log σ². With Z = X it equals the exact marginal.
func (s *SparseGP) LogMarginalLikelihood() float64 {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	n := float64(len(s.x))
	inv := 1 / s.NoiseVar
	rtr := s.sumY2 - 2*s.mean*s.sumY + n*s.mean*s.mean
	var bDotAlpha float64
	for j := range s.alpha {
		bDotAlpha += inv * (s.sy[j] - s.mean*s.s1[j]) * s.alpha[j]
	}
	quad := inv*rtr - bDotAlpha
	logdet := s.lp.LogDet() - s.luu.LogDet() + n*math.Log(s.NoiseVar)
	return -0.5*quad - 0.5*logdet - 0.5*n*log2Pi
}

// LeaveOneOut returns the leave-one-out predictive mean and variance for
// every retained training point — the sparse counterpart of the exact GP's
// closed form (loo.go). SoR is a Bayesian linear model in the inducing
// features, so with leverage h_i = σ⁻²·φᵢᵀP⁻¹φᵢ (maintained in lev) the
// PRESS identity gives yᵢ − μ₋ᵢ(xᵢ) = (yᵢ − ŷᵢ)/(1 − hᵢ), and a
// Sherman–Morrison step on P₋ᵢ gives the predictive variance
// σ² + levᵢ/(1 − hᵢ). Like the exact form, variances are predictive for the
// observed targets (they include observation noise). O(nm).
func (s *SparseGP) LeaveOneOut() (mu, variance []float64) {
	if s.lp == nil {
		panic(ErrNotFitted)
	}
	n := len(s.x)
	inv := 1 / s.NoiseVar
	mu = make([]float64, n)
	variance = make([]float64, n)
	for i := 0; i < n; i++ {
		// At low noise the leverage approaches 1 (the exact hat value obeys
		// 1 − h = σ²[(K+σ²I)⁻¹]ᵢᵢ), so unlike the forgetting rule — which
		// only ranks — the identity needs the raw value, guarded only
		// against division blow-up from rounding.
		h := inv * s.lev[i]
		if h < 0 {
			h = 0
		} else if h > 1-1e-12 {
			h = 1 - 1e-12
		}
		fit := s.mean + mat.Vector(s.phi[i]).Dot(s.alpha)
		e := (s.y[i] - fit) / (1 - h)
		mu[i] = s.y[i] - e
		variance[i] = s.NoiseVar + s.lev[i]/(1-h)
	}
	return mu, variance
}

// LOOLogLikelihood returns the sum of leave-one-out predictive log
// densities, mirroring the exact GP's diagnostic.
func (s *SparseGP) LOOLogLikelihood() float64 {
	mu, variance := s.LeaveOneOut()
	var acc float64
	for i := range mu {
		r := s.y[i] - mu[i]
		acc += -0.5*math.Log(2*math.Pi*variance[i]) - r*r/(2*variance[i])
	}
	return acc
}

// OptimizeHyperparams maximizes the sparse log marginal likelihood over the
// kernel's log-parameters and the log noise variance using multi-start
// Nelder–Mead, reselecting the inducing set for every candidate setting.
// nStarts must be ≥ 1; the model must already be fitted.
func (s *SparseGP) OptimizeHyperparams(nStarts int, rng *rand.Rand) error {
	if nStarts <= 0 {
		return fmt.Errorf("gp: OptimizeHyperparams needs nStarts >= 1, got %d", nStarts)
	}
	if s.lp == nil {
		return ErrNotFitted
	}
	kp := s.Kern.LogParams()
	x0 := append(append([]float64(nil), kp...), math.Log(s.NoiseVar))

	obj := func(p []float64) float64 {
		for _, v := range p {
			if v < -12 || v > 8 {
				return math.Inf(1)
			}
		}
		s.Kern.SetLogParams(p[:len(p)-1])
		s.NoiseVar = math.Exp(p[len(p)-1])
		if err := s.refit(); err != nil {
			return math.Inf(1)
		}
		return -s.LogMarginalLikelihood()
	}

	res := optim.MultiStartNelderMead(obj, x0, nStarts, 1.5, rng, optim.NelderMeadOptions{MaxIters: 250 * len(x0), TolF: 1e-7, TolX: 1e-4})
	if math.IsInf(res.F, 1) {
		s.Kern.SetLogParams(x0[:len(x0)-1])
		s.NoiseVar = math.Exp(x0[len(x0)-1])
		return s.refit()
	}
	s.Kern.SetLogParams(res.X[:len(res.X)-1])
	s.NoiseVar = math.Exp(res.X[len(res.X)-1])
	return s.refit()
}
