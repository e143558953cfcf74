// Package gp implements exact Gaussian process regression: Cholesky-based
// fitting of one or several target columns over shared inputs, predictive
// means/variances, joint posterior sampling (needed by the Monte-Carlo batch
// acquisition functions) and the log marginal likelihood — plus the
// inducing-point SparseGP.
package gp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/mat"
)

const log2Pi = 1.8378770664093453

// Multi is an exact Gaussian process regressor with k target columns
// conditioned on one set of inputs. Every column shares the kernel, the
// noise variance and therefore the Cholesky factor of K+σₙ²I, every
// cross-covariance k(x, X) and the posterior covariance at any query set;
// only the targets, their constant means and the alpha vectors differ per
// column. Conditioning k outcomes measured at the same inputs costs one
// factor instead of k. GP is its k = 1 case.
type Multi struct {
	Kern     kernel.Kernel
	NoiseVar float64 // observation noise variance σₙ²

	x    [][]float64
	cols []column
	chol *mat.Cholesky
	gen  uint64 // factorization epoch; see Generation

	// reserve is the training size the factor's backing array is sized
	// for at its next full factorization (see Reserve).
	reserve int
	// kcol is extend's scratch for one new point's cross-covariances.
	kcol mat.Vector
	// rhs is solve's scratch: one header per column's alpha.
	rhs []mat.Vector

	// fallbacks, when set, receives every joint-sampling MVN fallback of
	// THIS model, so an owner (e.g. one pamo.Scheduler) can attribute
	// degraded sampling to itself.
	fallbacks *atomic.Uint64
}

// column is one target column of a Multi.
type column struct {
	y     mat.Vector // raw targets
	mean  float64    // constant mean subtracted before solving
	alpha mat.Vector // (K+σₙ²I)⁻¹ (y − mean)
}

// GP is an exact Gaussian process regressor with a constant (empirical)
// mean function and homoscedastic observation noise: the single-target
// Multi.
type GP struct{ Multi }

// NewMulti returns an unfitted k-column GP with the given kernel and noise
// variance.
func NewMulti(k kernel.Kernel, noiseVar float64, cols int) *Multi {
	if cols < 1 {
		panic(fmt.Sprintf("gp: NewMulti with %d columns", cols))
	}
	if noiseVar <= 0 {
		noiseVar = 1e-6
	}
	return &Multi{Kern: k, NoiseVar: noiseVar, cols: make([]column, cols)}
}

// New returns an unfitted GP with the given kernel and noise variance.
func New(k kernel.Kernel, noiseVar float64) *GP {
	return &GP{*NewMulti(k, noiseVar, 1)}
}

// SetFallbackCounter injects a per-owner counter that is incremented
// whenever this model's joint posterior sampling degrades to the
// deterministic mean — once per column drawn.
func (g *Multi) SetFallbackCounter(c *atomic.Uint64) { g.fallbacks = c }

// Reserve sizes the Cholesky factor for n training points: every later
// full factorization allocates room for max(n, N()) points, so AddObservation
// and Append extend it in place, without reallocating, until the training
// set outgrows n. A caller that knows its final training size (a BO solve
// with a fixed iteration budget) sets it once before the first Fit. It
// changes no value the model computes.
func (g *Multi) Reserve(n int) { g.reserve = n }

// ErrNotFitted is returned by methods that require a prior Fit call.
var ErrNotFitted = errors.New("gp: model is not fitted")

// N returns the number of training points.
func (g *Multi) N() int { return len(g.x) }

// X returns the training inputs (not a copy).
func (g *Multi) X() [][]float64 { return g.x }

// Y returns the training targets of column col (not a copy).
func (g *Multi) Y(col int) []float64 { return g.cols[col].y }

// Y returns the training targets (not a copy).
func (g *GP) Y() []float64 { return g.cols[0].y }

// checkTargets validates one target slice per column, each of length n.
func (g *Multi) checkTargets(ys [][]float64, n int) error {
	if len(ys) != len(g.cols) {
		return fmt.Errorf("gp: %d target columns for a %d-column model", len(ys), len(g.cols))
	}
	for _, y := range ys {
		if len(y) != n {
			return fmt.Errorf("gp: %d inputs vs %d targets", n, len(y))
		}
	}
	return nil
}

// checkInputs validates the dimension of every input against the kernel.
func (g *Multi) checkInputs(xs [][]float64) error {
	for i, x := range xs {
		if len(x) != g.Kern.Dim() {
			return fmt.Errorf("gp: input %d has dim %d, kernel wants %d", i, len(x), g.Kern.Dim())
		}
	}
	return nil
}

// Fit conditions the model on inputs xs and one target slice per column,
// replacing any previous training data.
func (g *Multi) Fit(xs [][]float64, ys [][]float64) error {
	if err := g.checkTargets(ys, len(xs)); err != nil {
		return err
	}
	if len(xs) == 0 {
		return errors.New("gp: empty training set")
	}
	if err := g.checkInputs(xs); err != nil {
		return err
	}
	g.x = xs
	g.copyTargets(ys)
	return g.refactor()
}

// Fit conditions the GP on inputs xs and targets ys. It replaces any
// previous training data.
func (g *GP) Fit(xs [][]float64, ys []float64) error {
	return g.Multi.Fit(xs, [][]float64{ys})
}

// AddObservation appends one training point with one target per column
// without refactorizing from scratch: the Cholesky factor is extended in
// O(n²) (mat.Cholesky.Extend) and every column's alpha is re-solved against
// its updated constant mean. When the extension is numerically infeasible —
// or the model has never been fitted — it falls back to a full Fit/refactor,
// so the call always leaves the model conditioned on the enlarged training
// set.
//
// Hyperparameter changes invalidate the factor entirely; callers that edit
// Kern or NoiseVar must refit through Fit.
func (g *Multi) AddObservation(x []float64, ys []float64) error {
	if len(x) != g.Kern.Dim() {
		return fmt.Errorf("gp: input has dim %d, kernel wants %d", len(x), g.Kern.Dim())
	}
	if len(ys) != len(g.cols) {
		return fmt.Errorf("gp: %d targets for a %d-column model", len(ys), len(g.cols))
	}
	if g.chol == nil {
		if len(g.x) == 0 {
			cols := make([][]float64, len(ys))
			for c, y := range ys {
				cols[c] = []float64{y}
			}
			return g.Fit([][]float64{x}, cols)
		}
		return ErrNotFitted
	}
	for c := range g.cols {
		g.cols[c].y = append(g.cols[c].y, ys[c])
	}
	if _, err := g.extend([][]float64{x}); err != nil {
		return err
	}
	g.solve()
	return nil
}

// AddObservation appends one training point; see Multi.AddObservation.
func (g *GP) AddObservation(x []float64, y float64) error {
	return g.Multi.AddObservation(x, []float64{y})
}

// Append conditions the model on the inputs xs appended to its training
// inputs, with ys the complete target columns for the enlarged set (each
// N()+len(xs) long). This is the shape of a standardizing wrapper's refit,
// which rescales every target whenever a measurement arrives: the factor
// absorbs the new points one O(n²) extension at a time, exactly as
// len(xs) AddObservation calls would, and each column then solves its alpha
// once instead of once per point. Append reports how many of the points
// needed AddObservation's refactorization fallback. An unfitted, empty
// model is Fit instead.
func (g *Multi) Append(xs [][]float64, ys [][]float64) (refactored int, err error) {
	if err := g.checkInputs(xs); err != nil {
		return 0, err
	}
	if g.chol == nil {
		if len(g.x) == 0 {
			return 0, g.Fit(xs, ys)
		}
		return 0, ErrNotFitted
	}
	if err := g.checkTargets(ys, len(g.x)+len(xs)); err != nil {
		return 0, err
	}
	if refactored, err = g.extend(xs); err != nil {
		return refactored, err
	}
	g.copyTargets(ys)
	g.solve()
	return refactored, nil
}

// extend appends xs to the training inputs and grows the factor by one
// Cholesky.Extend per point. A numerically singular extension (e.g. a
// duplicate input) refactorizes the inputs so far instead, where CholJitter
// can rescue it with fresh diagonal jitter, and the next point extends that
// factor. Targets and alpha are left to the caller. It reports how many
// points needed the refactorization.
func (g *Multi) extend(xs [][]float64) (refactored int, err error) {
	if n := len(g.x) + len(xs); cap(g.kcol) < n {
		g.kcol = make(mat.Vector, max(n, g.reserve, 2*cap(g.kcol)))
	}
	for _, x := range xs {
		col := g.kcol[:len(g.x)]
		g.cross(col, 0, x)
		failed := g.chol.Extend(col, g.Kern.Eval(x, x)+g.NoiseVar) != nil
		g.x = append(g.x, x)
		if failed {
			refactored++
			if err := g.factor(); err != nil {
				return refactored, err
			}
		}
	}
	return refactored, nil
}

// SetTargets replaces the training targets in place (same training inputs),
// one slice per column, and re-solves every alpha against the existing
// Cholesky factor in O(n²) per column. The factor depends only on the
// inputs and hyperparameters, so wholesale target rescaling — as done by
// standardizing wrappers after every new measurement — does not need a
// refactorization.
func (g *Multi) SetTargets(ys [][]float64) error {
	if g.chol == nil {
		return ErrNotFitted
	}
	if err := g.checkTargets(ys, len(g.x)); err != nil {
		return err
	}
	g.copyTargets(ys)
	g.solve()
	return nil
}

// copyTargets copies one target slice per column into the model's own
// target storage, reusing its capacity (a slice that is that storage
// copies onto itself).
func (g *Multi) copyTargets(ys [][]float64) {
	for c := range g.cols {
		g.cols[c].y = append(g.cols[c].y[:0], ys[c]...)
	}
}

// SetTargets replaces the training targets; see Multi.SetTargets.
func (g *GP) SetTargets(ys []float64) error {
	return g.Multi.SetTargets([][]float64{ys})
}

// refactor recomputes the Cholesky factor and every alpha for the current
// data and hyperparameters.
func (g *Multi) refactor() error {
	if err := g.factor(); err != nil {
		return err
	}
	g.solve()
	return nil
}

// factor recomputes the Cholesky factor of K+σₙ²I for the current inputs
// and hyperparameters, advancing the generation so cross-covariance caches
// drop entries computed under the old kernel or training prefix.
//
// The kernel matrix is pooled scratch. The factor is a fresh array with
// room for the reserved training size (see Reserve), so a failed
// factorization leaves the previous factor intact.
func (g *Multi) factor() error {
	g.gen++
	n := len(g.x)
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	k := ws.Mat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := g.Kern.Eval(g.x[i], g.x[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	k.AddScaledEye(g.NoiseVar)
	room := max(n, g.reserve)
	l := &mat.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n, room*room)}
	c, err := mat.CholJitterInto(l, k)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization: %w", err)
	}
	g.chol = &c
	return nil
}

// solve re-centres every column on its constant mean into the column's
// alpha storage, then solves every alpha against the current factor in one
// SolveColsTo call: four columns per pass over L, each bit-identical to its
// own SolveVecTo.
func (g *Multi) solve() {
	g.rhs = g.rhs[:0]
	for c := range g.cols {
		col := &g.cols[c]
		col.mean = col.y.Mean()
		r := slices.Grow(col.alpha[:0], len(col.y))[:len(col.y)]
		for i, y := range col.y {
			r[i] = y - col.mean
		}
		col.alpha = r
		g.rhs = append(g.rhs, r)
	}
	g.chol.SolveColsTo(g.rhs)
}

// cross writes k(X_i, x) for the training inputs i = from, from+1, … into
// dst, one per element.
func (g *Multi) cross(dst mat.Vector, from int, x []float64) {
	for i := range dst {
		dst[i] = g.Kern.Eval(g.x[from+i], x)
	}
}

// means writes every column's posterior mean given the cross-covariance
// vector ks = k(x, X) into mu.
func (g *Multi) means(mu []float64, ks mat.Vector) {
	for c := range g.cols {
		mu[c] = g.cols[c].mean + ks.Dot(g.cols[c].alpha)
	}
}

// Predict writes every column's posterior mean at x into mu and returns the
// posterior variance of the latent function, which all columns share. The
// variance excludes observation noise.
func (g *Multi) Predict(x []float64, mu []float64) (variance float64) {
	if g.chol == nil {
		panic(ErrNotFitted)
	}
	ks := mat.NewVector(len(g.x))
	g.cross(ks, 0, x)
	g.means(mu, ks)
	v := mat.ForwardSolveTo(ks, g.chol.L, ks)
	variance = g.Kern.Eval(x, x) - v.Dot(v)
	if variance < 0 {
		variance = 0
	}
	return variance
}

// Predict returns the posterior mean and variance of the latent function at
// x. The variance excludes observation noise.
func (g *GP) Predict(x []float64) (mu, variance float64) {
	var m [1]float64
	variance = g.Multi.Predict(x, m[:])
	return m[0], variance
}

// PredictMean writes only the posterior means at x into mu, one per column.
// It skips the O(n²) triangular solve Predict performs for the variance,
// leaving n kernel evaluations plus one dot product per column — the right
// call for hot loops (candidate planning, outcome prediction) that never
// read the variance. It does not allocate.
func (g *Multi) PredictMean(x []float64, mu []float64) {
	if g.chol == nil {
		panic(ErrNotFitted)
	}
	mu = mu[:len(g.cols)]
	clear(mu)
	for i, xi := range g.x {
		k := g.Kern.Eval(xi, x)
		for c := range g.cols {
			mu[c] += k * g.cols[c].alpha[i]
		}
	}
	for c := range g.cols {
		mu[c] = g.cols[c].mean + mu[c]
	}
}

// PredictMean returns only the posterior mean at x; see Multi.PredictMean.
func (g *GP) PredictMean(x []float64) float64 {
	var m [1]float64
	g.Multi.PredictMean(x, m[:])
	return m[0]
}

// PredictBatch returns the joint posterior means (row c is column c's mean
// vector) and the shared covariance matrix of the latent function at the
// query points.
func (g *Multi) PredictBatch(xs [][]float64) (mu, cov *mat.Matrix) {
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	mu, cov = g.PredictBatchWith(ws, nil, xs)
	return mu.Clone(), cov.Clone()
}

// PredictBatch returns the joint posterior mean vector and covariance
// matrix of the latent function at the query points.
func (g *GP) PredictBatch(xs [][]float64) (mat.Vector, *mat.Matrix) {
	mu, cov := g.Multi.PredictBatch(xs)
	return mu.Row(0), cov
}

// SampleJoint draws nSamples correlated samples from the joint posterior at
// xs. The result is nSamples×len(xs).
func (g *GP) SampleJoint(xs [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	return g.SampleJointWith(ws, nil, xs, nSamples, rng)
}

// DrawMVN sets every row of rows to an independent draw from N(mu, cov):
// mu + L·z, with L the jittered Cholesky factor of cov and z ~ N(0, I)
// drawn from rng row by row. The factor and the deviates live in ws, so a
// warm workspace makes the call allocation-free. A covariance no jitter
// rescues leaves every row at mu, draws nothing from rng and adds one to
// counter (when non-nil), so an owner can see its sampling ran blind.
func DrawMVN(ws *mat.Workspace, rows [][]float64, mu mat.Vector, cov *mat.Matrix, rng *rand.Rand, counter *atomic.Uint64) {
	q := len(mu)
	l := factorCov(ws.Mat(q, q), cov, 1, counter)
	drawRows(rows, mu, l, ws.Vec(q), rng)
}

// factorCov factorizes a posterior covariance into f with CholJitter's
// jitter ladder and returns the factor. A covariance no jitter rescues
// returns nil and adds draws to counter (when non-nil): every one of those
// draws then degrades to the mean.
func factorCov(f, cov *mat.Matrix, draws int, counter *atomic.Uint64) *mat.Matrix {
	c, err := mat.CholJitterInto(f, cov)
	if err != nil {
		if counter != nil {
			counter.Add(uint64(draws))
		}
		return nil
	}
	return c.L
}

// newRows returns n zeroed rows of length q carved out of one allocation.
func newRows(n, q int) [][]float64 {
	block := make([]float64, n*q)
	rows := make([][]float64, n)
	for s := range rows {
		rows[s] = block[s*q : (s+1)*q : (s+1)*q]
	}
	return rows
}

// drawRows sets every row to mu + L·z, with z ~ N(0, I) drawn afresh from
// rng for each row into the scratch vector z. A nil l (a failed
// factorization) leaves every row at mu and draws nothing from rng.
func drawRows(rows [][]float64, mu []float64, l *mat.Matrix, z mat.Vector, rng *rand.Rand) {
	for _, row := range rows {
		copy(row, mu)
		if l == nil {
			continue
		}
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for i := range row {
			li := l.Data[i*l.Cols : i*l.Cols+i+1]
			var acc float64
			for j, v := range li {
				acc += v * z[j]
			}
			row[i] += acc
		}
	}
}

// LogMarginalLikelihood returns log p(y | X, θ) under the current
// hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		panic(ErrNotFitted)
	}
	n := float64(len(g.x))
	col := &g.cols[0]
	resid := col.y.Clone()
	for i := range resid {
		resid[i] -= col.mean
	}
	return -0.5*resid.Dot(col.alpha) - 0.5*g.chol.LogDet() - 0.5*n*log2Pi
}
