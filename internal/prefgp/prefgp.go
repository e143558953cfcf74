// Package prefgp implements Gaussian-process preference learning following
// Chu & Ghahramani (ICML 2005), the model PaMO uses to surrogate the system
// pricing-preference function g: R^k → R from pairwise comparisons of
// outcome vectors (Section 4.2 of the paper).
//
// The latent utility g over the observed outcome vectors has a GP prior;
// each comparison y⁽¹⁾ ≻ y⁽²⁾ contributes a probit likelihood
// Φ((g(y⁽¹⁾)−g(y⁽²⁾))/(√2·λ)). The posterior is approximated with a Laplace
// approximation found by damped Newton iterations.
package prefgp

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

// Comparison records that the decision maker prefers point Winner to point
// Loser (indices into the model's point list).
type Comparison struct {
	Winner, Loser int
}

// Model is a preference GP over outcome vectors.
type Model struct {
	Kern   kernel.Kernel
	Lambda float64 // probit noise scale λ (paper's hyperparameter)

	points [][]float64
	comps  []Comparison

	// Laplace posterior state (valid after Fit). Each Fit overwrites it in
	// place, reusing the storage of the previous one.
	ghat     mat.Vector  // MAP latent utilities at points
	kinvGhat mat.Vector  // K⁻¹ĝ, the weights of the posterior mean
	kinv     *mat.Matrix // K⁻¹ over points
	ainv     *mat.Matrix // (K⁻¹+W)⁻¹ — posterior covariance of g at points
	evidence float64     // Laplace log marginal likelihood of the comparisons

	// fitWS is Fit's scratch (the prior covariance, the Newton Hessians,
	// their factors and the iterate vectors), reset by every Fit.
	fitWS mat.Workspace

	// fallbacks, when set, receives every Sample MVN fallback of this
	// model so an owner can attribute degraded sampling to itself (see
	// gp.DrawMVN).
	fallbacks *atomic.Uint64
}

// SetFallbackCounter injects a per-owner counter incremented whenever
// Sample degrades to the deterministic posterior mean.
func (m *Model) SetFallbackCounter(c *atomic.Uint64) { m.fallbacks = c }

// NewModel returns an empty preference model. lambda defaults to 0.1 when
// non-positive; outcome vectors are expected to be normalized to [0,1]^k so
// the default unit kernel lengthscales are sensible.
func NewModel(k kernel.Kernel, lambda float64) *Model {
	if lambda <= 0 {
		lambda = 0.1
	}
	return &Model{Kern: k, Lambda: lambda}
}

// AddPoint registers an outcome vector and returns its index. An exact
// duplicate of an existing point returns the existing index.
func (m *Model) AddPoint(y []float64) int {
	for i, p := range m.points {
		if equal(p, y) {
			return i
		}
	}
	m.points = append(m.points, append([]float64(nil), y...))
	return len(m.points) - 1
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AddComparison records winner ≻ loser. Indices must come from AddPoint.
func (m *Model) AddComparison(winner, loser int) error {
	n := len(m.points)
	if winner < 0 || winner >= n || loser < 0 || loser >= n {
		return fmt.Errorf("prefgp: comparison (%d, %d) out of range [0,%d)", winner, loser, n)
	}
	if winner == loser {
		return errors.New("prefgp: comparison of a point with itself")
	}
	m.comps = append(m.comps, Comparison{Winner: winner, Loser: loser})
	return nil
}

// NumComparisons returns the number of recorded comparisons.
func (m *Model) NumComparisons() int { return len(m.comps) }

// Fit computes the Laplace approximation of the posterior over latent
// utilities. It must be called after adding points/comparisons and before
// prediction. Its scratch lives in the model and is reused by the next
// Fit, so a refit at an unchanged point count allocates nothing.
func (m *Model) Fit() error {
	n := len(m.points)
	if n == 0 {
		return errors.New("prefgp: no points")
	}
	if len(m.comps) == 0 {
		return errors.New("prefgp: no comparisons")
	}
	ws := &m.fitWS
	ws.Reset()
	// Prior covariance and its inverse.
	k := ws.Mat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := m.Kern.Eval(m.points[i], m.points[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	ck, err := mat.CholJitterInto(ws.Mat(n, n), k)
	if err != nil {
		return fmt.Errorf("prefgp: prior covariance: %w", err)
	}
	m.kinv = ck.InverseTo(reshape(m.kinv, n))

	// Damped Newton iterations for the MAP latent utilities. grad and w
	// are overwritten by every nllGradHess call; kg holds K⁻¹g.
	g, next, kg := ws.Vec(n), ws.Vec(n), ws.Vec(n)
	grad, step := ws.Vec(n), ws.Vec(n)
	w, lh := ws.Mat(n, n), ws.Mat(n, n)
	c := 1 / (math.Sqrt2 * m.Lambda)
	psi := func(gv mat.Vector) float64 {
		// ψ(g) = −Σ log Φ(z_v) + ½ gᵀK⁻¹g
		s := 0.5 * gv.Dot(m.kinv.MulVecTo(kg, gv))
		for _, cp := range m.comps {
			z := c * (gv[cp.Winner] - gv[cp.Loser])
			s -= stats.NormLogCDF(z)
		}
		return s
	}
	cur := psi(g)
	for iter := 0; iter < 100; iter++ {
		m.nllGradHess(grad, w, g, c)
		// ∇ψ = ∇nll + K⁻¹g ; Hψ = W + K⁻¹.
		grad.Add(m.kinv.MulVecTo(kg, g))
		w.Add(m.kinv)
		ch, err := mat.CholJitterInto(lh, w)
		if err != nil {
			return fmt.Errorf("prefgp: Newton Hessian: %w", err)
		}
		ch.SolveVecTo(step, grad)
		// Damped line search on ψ.
		t := 1.0
		improved := false
		for ls := 0; ls < 30; ls++ {
			copy(next, g)
			next.AddScaled(-t, step)
			if v := psi(next); v < cur {
				cur = v
				improved = true
				break
			}
			t /= 2
		}
		if !improved {
			break
		}
		delta := 0.0
		for i := range g {
			delta = math.Max(delta, math.Abs(next[i]-g[i]))
		}
		g, next = next, g
		if delta < 1e-8 {
			break
		}
	}
	m.ghat = append(m.ghat[:0], g...)

	// Posterior covariance (K⁻¹+W)⁻¹ at the MAP point.
	m.nllGradHess(grad, w, g, c)
	w.Add(m.kinv)
	ca, err := mat.CholJitterInto(lh, w)
	if err != nil {
		return fmt.Errorf("prefgp: Laplace covariance: %w", err)
	}
	m.ainv = ca.InverseTo(reshape(m.ainv, n))
	m.ainv.Symmetrize()
	m.kinvGhat = m.kinv.MulVecTo(slices.Grow(m.kinvGhat[:0], n)[:n], m.ghat)

	// Laplace evidence: log q(P|θ) = −ψ(ĝ) − ½ log det(I + K·W)
	// with det(I + K·W) = det(K)·det(K⁻¹ + W).
	m.evidence = -cur - 0.5*(ck.LogDet()+ca.LogDet())
	return nil
}

// reshape returns an n×n matrix, reusing a's storage when it is large
// enough. Its contents are left for the caller to overwrite.
func reshape(a *mat.Matrix, n int) *mat.Matrix {
	if a == nil || cap(a.Data) < n*n {
		return mat.NewMatrix(n, n)
	}
	a.Rows, a.Cols, a.Data = n, n, a.Data[:n*n]
	return a
}

// nllGradHess overwrites grad and w with the gradient and Hessian (W) of
// the negative log likelihood at latent utilities g, with probit scale
// c = 1/(√2λ).
func (m *Model) nllGradHess(grad mat.Vector, w *mat.Matrix, g mat.Vector, c float64) {
	n := len(g)
	clear(grad)
	clear(w.Data)
	for _, cp := range m.comps {
		z := c * (g[cp.Winner] - g[cp.Loser])
		rho := stats.InvMills(z)   // φ(z)/Φ(z)
		curv := rho * (rho + z)    // -d²logΦ/dz² ≥ 0
		grad[cp.Winner] -= c * rho // d(−logΦ)/dg_w
		grad[cp.Loser] += c * rho
		cc := c * c * curv
		w.Data[cp.Winner*n+cp.Winner] += cc
		w.Data[cp.Loser*n+cp.Loser] += cc
		w.Data[cp.Winner*n+cp.Loser] -= cc
		w.Data[cp.Loser*n+cp.Winner] -= cc
	}
}

// ErrNotFitted is returned by predictions before Fit.
var ErrNotFitted = errors.New("prefgp: model is not fitted")

// Predict returns the joint posterior mean and covariance of the latent
// utility at the query outcome vectors, in memory the caller owns; see
// PredictWith.
func (m *Model) Predict(ys [][]float64) (mat.Vector, *mat.Matrix) {
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	mu, cov := m.PredictWith(ws, ys)
	return mu.Clone(), cov.Clone()
}

// PredictWith returns the joint posterior mean and covariance of the
// latent utility at the query outcome vectors,
//
//	μ* = K*ᵀ K⁻¹ ĝ
//	Σ* = K** − K*ᵀ(K⁻¹ − K⁻¹ A⁻¹ K⁻¹)K*,  A = K⁻¹ + W,
//
// with every intermediate and both results carved out of ws: they are
// valid until the next ws.Reset, and a warm workspace makes the call
// allocation-free. Column j of K⁻¹K* and of A⁻¹K⁻¹K* depends only on query
// j, so the entries for any pair of queries carry the same bits whether
// the pair is predicted alone or inside a larger batch.
func (m *Model) PredictWith(ws *mat.Workspace, ys [][]float64) (mat.Vector, *mat.Matrix) {
	if m.ainv == nil {
		panic(ErrNotFitted)
	}
	n, q := len(m.points), len(ys)
	ks := ws.Mat(n, q)
	for i := 0; i < n; i++ {
		row := ks.Row(i)
		for j, y := range ys {
			row[j] = m.Kern.Eval(m.points[i], y)
		}
	}
	kinvKs := m.kinv.MulTo(ws.Mat(n, q), ks)
	aKinvKs := m.ainv.MulTo(ws.Mat(n, q), kinvKs)
	// The loops below walk columns of the three n×q products; transposed,
	// each column is a contiguous row.
	ksT, kinvKsT, aKinvKsT := transpose(ws, ks), transpose(ws, kinvKs), transpose(ws, aKinvKs)
	mu := ws.Vec(q)
	for j := range mu {
		mu[j] = ksT.Row(j).Dot(m.kinvGhat)
	}
	// Σ* = K** − Ksᵀ·K⁻¹·Ks + (K⁻¹Ks)ᵀ·A⁻¹·(K⁻¹Ks)
	cov := ws.Mat(q, q)
	for a := 0; a < q; a++ {
		ksA, kinvKsA := ksT.Row(a), kinvKsT.Row(a)
		for b := a; b < q; b++ {
			v := m.Kern.Eval(ys[a], ys[b])
			kinvKsB, aKinvKsB := kinvKsT.Row(b), aKinvKsT.Row(b)
			for i, k := range ksA {
				v -= k * kinvKsB[i]
				v += kinvKsA[i] * aKinvKsB[i]
			}
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return mu, cov
}

// transpose returns aᵀ carved out of ws.
func transpose(ws *mat.Workspace, a *mat.Matrix) *mat.Matrix {
	t := ws.Mat(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			t.Data[j*a.Rows+i] = v
		}
	}
	return t
}

// PredictOne returns the posterior mean and variance of the utility at y.
func (m *Model) PredictOne(y []float64) (mu, variance float64) {
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	mv, cov := m.PredictWith(ws, [][]float64{y})
	v := cov.At(0, 0)
	if v < 0 {
		v = 0
	}
	return mv[0], v
}

// SampleWith draws len(rows) joint samples of the latent utility at ys into
// the caller-owned rows (each len(ys) long): the posterior of PredictWith,
// factored and drawn by gp.DrawMVN on the same workspace, so a warm
// workspace makes the call allocation-free. A posterior covariance no
// jitter rescues leaves every row at the mean and counts one fallback.
func (m *Model) SampleWith(ws *mat.Workspace, ys [][]float64, rows [][]float64, rng *rand.Rand) {
	mu, cov := m.PredictWith(ws, ys)
	gp.DrawMVN(ws, rows, mu, cov, rng, m.fallbacks)
}
