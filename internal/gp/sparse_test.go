package gp

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// sparseTestData samples a smooth 1-D regression problem.
func sparseTestData(seed uint64, n int) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewPCG(seed, 0x5a12))
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		x := 3 * rng.Float64()
		xs[i] = []float64{x}
		ys[i] = math.Sin(3*x) + 0.5*x + 0.01*rng.NormFloat64()
	}
	return xs, ys
}

// roughKernel returns a short-lengthscale Matérn-5/2: its prior Gram over
// well-separated 1-D points is numerically full-rank, which the strict
// equivalence tests need (an RBF Gram saturates float64 rank at ~16 points,
// after which the inducing span is legitimately smaller than n).
func roughKernel() kernel.Kernel {
	k := kernel.NewMatern52(1)
	k.SetLogParams([]float64{math.Log(1.0), math.Log(0.3)})
	return k
}

// spreadData places n well-separated points on [0, 3] with a smooth target.
func spreadData(n int) (xs [][]float64, ys []float64) {
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		x := 3 * (float64(i) + 0.5) / float64(n)
		xs[i] = []float64{x}
		ys[i] = math.Sin(3*x) + 0.5*x
	}
	return xs, ys
}

// TestSparseExactEquivalence pins the m ≥ n case: with every training point
// admitted into the inducing set, the SoR/FITC posterior IS the exact GP
// posterior — mean, variance, and log marginal likelihood.
func TestSparseExactEquivalence(t *testing.T) {
	xs, ys := spreadData(20)
	noise := 1e-4

	sp := NewSparse(roughKernel(), noise, SparseOptions{MaxInducing: len(xs), ResidualTol: 1e-300})
	if err := sp.Fit(xs, ys); err != nil {
		t.Fatalf("sparse fit: %v", err)
	}
	ex := New(roughKernel(), noise)
	if err := ex.Fit(xs, ys); err != nil {
		t.Fatalf("exact fit: %v", err)
	}
	if sp.M() != len(xs) {
		t.Fatalf("inducing set size %d, want %d", sp.M(), len(xs))
	}

	tol := 1e-6
	for _, q := range []float64{-0.5, 0.3, 1.1, 2.0, 2.9, 3.6} {
		ms, vs := sp.Predict([]float64{q})
		me, ve := ex.Predict([]float64{q})
		if math.Abs(ms-me) > tol || math.Abs(vs-ve) > tol {
			t.Fatalf("x=%v: sparse (%v, %v) vs exact (%v, %v)", q, ms, vs, me, ve)
		}
	}
	if d := math.Abs(sp.LogMarginalLikelihood() - ex.LogMarginalLikelihood()); d > tol*float64(len(xs)) {
		t.Fatalf("LML diverged by %v: sparse %v exact %v", d, sp.LogMarginalLikelihood(), ex.LogMarginalLikelihood())
	}

	// LOO diagnostics coincide too: with Z = X the weight-space PRESS
	// identities describe the very same model as the exact closed form.
	muS, varS := sp.LeaveOneOut()
	muE, varE := ex.LeaveOneOut()
	for i := range muS {
		if math.Abs(muS[i]-muE[i]) > 1e-4 || math.Abs(varS[i]-varE[i]) > 1e-4 {
			t.Fatalf("LOO[%d]: sparse (%v, %v) vs exact (%v, %v)", i, muS[i], varS[i], muE[i], varE[i])
		}
	}
}

// TestSparseAddObservationVsFit checks the incremental path: growing a
// sparse GP one observation at a time (with a permissive inducing budget, so
// every point promotes) matches a from-scratch Fit on the same data.
func TestSparseAddObservationVsFit(t *testing.T) {
	xs, ys := spreadData(18)
	noise := 1e-4
	opt := SparseOptions{MaxInducing: len(xs), ResidualTol: 1e-300}

	inc := NewSparse(roughKernel(), noise, opt)
	for i := range xs {
		if err := inc.AddObservation(xs[i], ys[i]); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	full := NewSparse(roughKernel(), noise, opt)
	if err := full.Fit(xs, ys); err != nil {
		t.Fatalf("fit: %v", err)
	}

	tol := 1e-6
	for _, q := range []float64{-0.2, 0.7, 1.5, 2.4, 3.2} {
		mi, vi := inc.Predict([]float64{q})
		mf, vf := full.Predict([]float64{q})
		if math.Abs(mi-mf) > tol || math.Abs(vi-vf) > tol {
			t.Fatalf("x=%v: incremental (%v, %v) vs full (%v, %v)", q, mi, vi, mf, vf)
		}
	}
	if inc.Stats().Obs != uint64(len(xs)) {
		t.Fatalf("Obs stat %d, want %d", inc.Stats().Obs, len(xs))
	}
}

// TestSparseCompression checks the m ≪ n regime on smooth data: a small
// inducing budget must still track the exact posterior mean closely, and the
// batch path must agree with the pointwise one.
func TestSparseCompression(t *testing.T) {
	xs, ys := sparseTestData(3, 120)
	noise := 1e-2

	sp := NewSparse(kernel.NewRBF(1), noise, SparseOptions{MaxInducing: 16})
	if err := sp.Fit(xs, ys); err != nil {
		t.Fatalf("sparse fit: %v", err)
	}
	ex := New(kernel.NewRBF(1), noise)
	if err := ex.Fit(xs, ys); err != nil {
		t.Fatalf("exact fit: %v", err)
	}
	if sp.M() > 16 {
		t.Fatalf("inducing set size %d exceeds cap", sp.M())
	}

	qs := make([][]float64, 0, 12)
	for q := 0.1; q < 3.0; q += 0.25 {
		qs = append(qs, []float64{q})
	}
	muB, covB := sp.PredictBatch(qs)
	for j, q := range qs {
		ms, vs := sp.Predict(q)
		me, _ := ex.Predict(q)
		if math.Abs(ms-me) > 0.05 {
			t.Fatalf("x=%v: sparse mean %v drifted from exact %v", q[0], ms, me)
		}
		if math.Abs(muB[j]-ms) > 1e-10 || math.Abs(covB.At(j, j)-vs) > 1e-10 {
			t.Fatalf("x=%v: batch (%v, %v) vs pointwise (%v, %v)", q[0], muB[j], covB.At(j, j), ms, vs)
		}
	}
}

// TestSparseForgetting exercises the MaxObs budget: the retained set stays
// capped, forgets are counted, and the posterior keeps fitting the incumbent
// region it was told to protect.
func TestSparseForgetting(t *testing.T) {
	xs, ys := sparseTestData(19, 60)
	noise := 1e-3
	cap := 24

	sp := NewSparse(kernel.NewRBF(1), noise, SparseOptions{MaxInducing: 12, MaxObs: cap})
	sp.SetIncumbent([]float64{1.5})
	for i := range xs {
		if err := sp.AddObservation(xs[i], ys[i]); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if sp.N() > cap {
			t.Fatalf("after add %d: retained %d > budget %d", i, sp.N(), cap)
		}
	}
	if got, want := sp.Stats().Forgets, uint64(len(xs)-cap); got != want {
		t.Fatalf("Forgets = %d, want %d", got, want)
	}
	if sp.N() != cap {
		t.Fatalf("retained %d, want %d", sp.N(), cap)
	}
	// The incumbent region must still be modeled: compare against an exact
	// GP on the full data.
	ex := New(kernel.NewRBF(1), noise)
	if err := ex.Fit(xs, ys); err != nil {
		t.Fatalf("exact fit: %v", err)
	}
	ms := sp.PredictMean([]float64{1.5})
	me := ex.PredictMean([]float64{1.5})
	if math.Abs(ms-me) > 0.1 {
		t.Fatalf("incumbent mean %v drifted from exact %v after forgetting", ms, me)
	}
}

// TestSparseScaleTargets pins the O(m²) rescale against a from-scratch fit
// on the scaled targets.
func TestSparseScaleTargets(t *testing.T) {
	xs, ys := sparseTestData(23, 25)
	noise := 1e-4
	opt := SparseOptions{MaxInducing: 10}

	sp := NewSparse(kernel.NewRBF(1), noise, opt)
	if err := sp.Fit(xs, ys); err != nil {
		t.Fatalf("fit: %v", err)
	}
	const f = 2.75
	if err := sp.ScaleTargets(f); err != nil {
		t.Fatalf("scale: %v", err)
	}

	scaled := make([]float64, len(ys))
	for i, v := range ys {
		scaled[i] = v * f
	}
	ref := NewSparse(kernel.NewRBF(1), noise, opt)
	if err := ref.Fit(xs, scaled); err != nil {
		t.Fatalf("ref fit: %v", err)
	}
	for _, q := range []float64{0.2, 1.0, 1.9, 2.8} {
		ms, vs := sp.Predict([]float64{q})
		mr, vr := ref.Predict([]float64{q})
		if math.Abs(ms-mr) > 1e-8 || math.Abs(vs-vr) > 1e-8 {
			t.Fatalf("x=%v: scaled (%v, %v) vs refit (%v, %v)", q, ms, vs, mr, vr)
		}
	}
	if d := math.Abs(sp.LogMarginalLikelihood() - ref.LogMarginalLikelihood()); d > 1e-6*float64(len(xs)) {
		t.Fatalf("LML diverged by %v after rescale", d)
	}
}

// TestSparseRejections covers the contract errors shared with the exact GP.
func TestSparseRejections(t *testing.T) {
	sp := NewSparse(kernel.NewRBF(2), 1e-4, SparseOptions{})
	if err := sp.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := sp.Fit(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if err := sp.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := sp.AddObservation([]float64{1}, 0); err == nil {
		t.Error("dim-mismatched observation accepted")
	}
	if err := sp.OptimizeHyperparams(0, rand.New(rand.NewPCG(1, 2))); err == nil {
		t.Error("nStarts=0 accepted")
	}
	if err := sp.Fit([][]float64{{0, 0}, {1, 1}}, []float64{0, 1}); err != nil {
		t.Fatalf("fit: %v", err)
	}
	if err := sp.SetTargets([]float64{1}); err == nil {
		t.Error("short target vector accepted")
	}
}

// TestSparseSampleJointDeterminism pins SampleJointWith to SampleJoint given
// equal rng states, mirroring the exact GP's workspace-path guarantee.
func TestSparseSampleJointDeterminism(t *testing.T) {
	xs, ys := sparseTestData(29, 30)
	sp := NewSparse(kernel.NewMatern52(1), 1e-3, SparseOptions{MaxInducing: 12})
	if err := sp.Fit(xs, ys); err != nil {
		t.Fatalf("fit: %v", err)
	}
	qs := [][]float64{{0.4}, {1.2}, {2.1}}
	a := sp.SampleJoint(qs, 5, rand.New(rand.NewPCG(5, 6)))
	ws := mat.NewWorkspace()
	ws.Reset()
	b := sp.SampleJointWith(ws, qs, 5, rand.New(rand.NewPCG(5, 6)))
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("sample [%d][%d]: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// SetIncumbent records the input the forgetting rule should protect: the
// observation whose removal least perturbs the posterior *at this point* is
// the one dropped when the MaxObs budget is exceeded. A nil incumbent falls
// back to each observation's self-impact (leverage-weighted LOO residual).
func (s *SparseGP) SetIncumbent(x []float64) {
	if x == nil {
		s.incumbent = nil
		return
	}
	s.incumbent = append(s.incumbent[:0], x...)
}

// Stats returns the cumulative lifecycle counters.
func (s *SparseGP) Stats() SparseStats { return s.stats }

// ScaleTargets multiplies every retained target by f — the standardizing
// wrapper's "same data, new scale" refit — in O(m²): the factors depend only
// on inputs and hyperparameters, and the running moments scale linearly.
func (s *SparseGP) ScaleTargets(f float64) error {
	if s.lp == nil {
		return ErrNotFitted
	}
	if f == 1 {
		return nil
	}
	for i := range s.y {
		s.y[i] *= f
	}
	for j := range s.sy {
		s.sy[j] *= f
	}
	s.sumY *= f
	s.sumY2 *= f * f
	s.mean *= f
	s.refreshAlpha()
	return nil
}
