package gp

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

func cacheTestModel(t testing.TB, n, dim int) (*GP, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(31, uint64(n)))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.NormFloat64()
	}
	g := New(kernel.NewMatern52(dim), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, 7)
	for j := range qs {
		qs[j] = make([]float64, dim)
		for d := range qs[j] {
			qs[j][d] = rng.Float64()
		}
	}
	return g, qs
}

// TestPredictBatchWithMatches pins the workspace+cache path bit-exact
// against PredictBatch, with and without a cache, warm and cold.
func TestPredictBatchWithMatches(t *testing.T) {
	g, qs := cacheTestModel(t, 12, 3)
	wantMu, wantCov := g.PredictBatch(qs)
	ws := mat.NewWorkspace()
	cc := g.NewCrossCache()
	for pass := 0; pass < 3; pass++ { // pass 0 cold cache, later passes warm
		ws.Reset()
		var gotMu mat.Vector
		var gotCov *mat.Matrix
		if pass == 2 {
			gotMu, gotCov = g.PredictBatchWith(ws, nil, qs) // cache-less path
		} else {
			gotMu, gotCov = g.PredictBatchWith(ws, cc, qs)
		}
		for j := range wantMu {
			if gotMu[j] != wantMu[j] {
				t.Fatalf("pass %d: mu[%d] = %g, want %g", pass, j, gotMu[j], wantMu[j])
			}
		}
		for i := range wantCov.Data {
			if gotCov.Data[i] != wantCov.Data[i] {
				t.Fatalf("pass %d: cov[%d] = %g, want %g", pass, i, gotCov.Data[i], wantCov.Data[i])
			}
		}
	}
}

// TestSampleJointWithMatches pins the workspace sampling path bit-exact
// against SampleJoint under identical RNG streams.
func TestSampleJointWithMatches(t *testing.T) {
	g, qs := cacheTestModel(t, 10, 2)
	cc := g.NewCrossCache()
	ws := mat.NewWorkspace()
	want := g.SampleJoint(qs, 5, rand.New(rand.NewPCG(1, 2)))
	got := g.SampleJointWith(ws, cc, qs, 5, rand.New(rand.NewPCG(1, 2)))
	for s := range want {
		for j := range want[s] {
			if got[s][j] != want[s][j] {
				t.Fatalf("sample[%d][%d] = %g, want %g", s, j, got[s][j], want[s][j])
			}
		}
	}
}

// TestCrossCacheInvalidation drives the cache through the three lifecycle
// events — incremental AddObservation (lazy extension, same generation),
// full Fit (generation bump), and hyperparameter refit — asserting cached
// predictions always match the direct ones.
func TestCrossCacheInvalidation(t *testing.T) {
	g, qs := cacheTestModel(t, 8, 2)
	cc := g.NewCrossCache()
	x := qs[0]

	checkMean := func(stage string) {
		t.Helper()
		want := g.PredictMean(x)
		var got [1]float64
		if cc.PredictMean(x, got[:]); got[0] != want {
			t.Fatalf("%s: cached mean %g, want %g", stage, got[0], want)
		}
	}
	checkMean("initial")
	gen := g.Generation()

	// Incremental growth: generation stays, cached vectors extend lazily.
	if err := g.AddObservation([]float64{0.21, 0.77}, 0.4); err != nil {
		t.Fatal(err)
	}
	if g.Generation() != gen {
		t.Fatalf("AddObservation bumped generation %d -> %d; extensions should not invalidate", gen, g.Generation())
	}
	checkMean("after AddObservation")

	// A full refactorization — the path AddObservation falls back to on a
	// numerically singular extension — must advance the generation.
	if err := g.refactor(); err != nil {
		t.Fatal(err)
	}
	if g.Generation() == gen {
		t.Fatal("refactor did not bump generation")
	}
	checkMean("after refactor")

	// Hyperparameter change + refit: stale kernels would be silently wrong
	// if the generation didn't move.
	gen = g.Generation()
	lp := g.Kern.LogParams()
	lp[0] += 0.3
	g.Kern.SetLogParams(lp)
	if err := g.Fit(g.X(), g.Y()); err != nil {
		t.Fatal(err)
	}
	if g.Generation() == gen {
		t.Fatal("Fit did not bump generation")
	}
	checkMean("after hyperparameter refit")
}

// predictBatchOracle is PredictBatchWith as it was before the four-wide
// kernels: one ForwardSolveTo per query and one running sum per covariance
// entry.
func predictBatchOracle(g *Multi, xs [][]float64) (mu, cov *mat.Matrix) {
	n, q := g.N(), len(xs)
	mu = mat.NewMatrix(len(g.cols), q)
	vt := mat.NewMatrix(q, n)
	m := make([]float64, len(g.cols))
	for j, x := range xs {
		kj := mat.NewVector(n)
		g.cross(kj, 0, x)
		mat.ForwardSolveTo(vt.Row(j), g.chol.L, kj)
		g.means(m, kj)
		for c, v := range m {
			mu.Set(c, j, v)
		}
	}
	cov = mat.NewMatrix(q, q)
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			s := g.Kern.Eval(xs[a], xs[b])
			for i := 0; i < n; i++ {
				s -= vt.At(a, i) * vt.At(b, i)
			}
			cov.Set(a, b, s)
			cov.Set(b, a, s)
		}
	}
	return mu, cov
}

// TestFourWideKernelsMatchPerVectorOracle holds the k-column model's
// four-wide paths to their one-vector-at-a-time forms, bit for bit: solve
// against one SolveVecTo per column, and PredictBatchWith (with and without
// a cross-covariance cache, at every remainder of four queries) against
// predictBatchOracle.
func TestFourWideKernelsMatchPerVectorOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	pt := func() []float64 { return []float64{rng.Float64(), rng.Float64(), rng.Float64()} }
	xs := make([][]float64, 30)
	ys := make([][]float64, 5)
	for i := range xs {
		xs[i] = pt()
		for c := range ys {
			ys[c] = append(ys[c], rng.NormFloat64())
		}
	}
	g := NewMulti(kernel.NewMatern52(3), 1e-4, len(ys))
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for c := range g.cols {
		r := g.cols[c].y.Clone()
		for i := range r {
			r[i] -= g.cols[c].mean
		}
		g.chol.SolveVecTo(r, r)
		for i, want := range r {
			if math.Float64bits(g.cols[c].alpha[i]) != math.Float64bits(want) {
				t.Fatalf("column %d alpha[%d] = %v, SolveVecTo %v", c, i, g.cols[c].alpha[i], want)
			}
		}
	}
	cc := g.NewCrossCache()
	for q := 1; q <= 9; q++ {
		xs := make([][]float64, q)
		for j := range xs {
			xs[j] = pt()
		}
		wantMu, wantCov := predictBatchOracle(g, xs)
		for _, c := range []*CrossCache{nil, cc} {
			ws := mat.NewWorkspace()
			mu, cov := g.PredictBatchWith(ws, c, xs)
			for i := range wantMu.Data {
				if math.Float64bits(mu.Data[i]) != math.Float64bits(wantMu.Data[i]) {
					t.Fatalf("q=%d cache=%v: mu[%d] = %v, oracle %v", q, c != nil, i, mu.Data[i], wantMu.Data[i])
				}
			}
			for i := range wantCov.Data {
				if math.Float64bits(cov.Data[i]) != math.Float64bits(wantCov.Data[i]) {
					t.Fatalf("q=%d cache=%v: cov[%d] = %v, oracle %v", q, c != nil, i, cov.Data[i], wantCov.Data[i])
				}
			}
		}
	}
}
