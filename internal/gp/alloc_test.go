//go:build !race

package gp

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// TestPredictMeanZeroAlloc pins PredictMean — the hot call in candidate
// planning — to zero heap allocations, both direct and through a warm
// cross-covariance cache. (Skipped under -race, which instruments
// allocation.)
func TestPredictMeanZeroAlloc(t *testing.T) {
	g, qs := cacheTestModel(t, 16, 3)
	x := qs[0]
	if n := testing.AllocsPerRun(100, func() { g.PredictMean(x) }); n != 0 {
		t.Fatalf("PredictMean allocates %v times per run, want 0", n)
	}
	cc := g.NewCrossCache()
	mu := make([]float64, 1)
	cc.PredictMean(x, mu) // warm the cache entry
	if n := testing.AllocsPerRun(100, func() { cc.PredictMean(x, mu) }); n != 0 {
		t.Fatalf("CrossCache.PredictMean allocates %v times per run, want 0", n)
	}
}

// TestSparsePredictZeroAlloc pins the sparse hot paths: PredictMean is a
// plain O(m) loop over the inducing representation and must never allocate;
// PredictBatchWith must draw all scratch from a warm workspace.
func TestSparsePredictZeroAlloc(t *testing.T) {
	xs, ys := sparseTestData(41, 40)
	sp := NewSparse(roughKernel(), 1e-3, SparseOptions{MaxInducing: 12})
	if err := sp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	x := []float64{1.3}
	if n := testing.AllocsPerRun(100, func() { sp.PredictMean(x) }); n != 0 {
		t.Fatalf("sparse PredictMean allocates %v times per run, want 0", n)
	}
	qs := [][]float64{{0.2}, {0.9}, {1.7}, {2.4}}
	ws := mat.NewWorkspace()
	ws.Reset()
	sp.PredictBatchWith(ws, qs) // warm the workspace
	n := testing.AllocsPerRun(100, func() {
		ws.Reset()
		sp.PredictBatchWith(ws, qs)
	})
	if n != 0 {
		t.Fatalf("warm sparse PredictBatchWith allocates %v times per run, want 0", n)
	}
}

// TestMultiSampleJointWithWarmAllocs pins the shared k-column sampler to
// zero heap allocations once workspace and cache are warm: the rows are
// the caller's, and V = L⁻¹K*, the posterior covariance, its factor and the
// normal deviates all live in the workspace.
func TestMultiSampleJointWithWarmAllocs(t *testing.T) {
	const k, samples = 5, 8
	rng := rand.New(rand.NewPCG(9, 9))
	xs := make([][]float64, 16)
	ys := make([][]float64, k)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		for c := range ys {
			ys[c] = append(ys[c], rng.NormFloat64())
		}
	}
	m := NewMulti(kernel.NewMatern52(3), 1e-4, k)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}, {0.7, 0.8, 0.9}, {0.2, 0.9, 0.5}}
	rngs := make([]*rand.Rand, k)
	rows := make([][][]float64, k)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(1, uint64(c)))
		rows[c] = newRows(samples, len(qs))
	}
	cc := m.NewCrossCache()
	ws := mat.NewWorkspace()
	m.SampleJointWith(ws, cc, qs, rows, rngs) // warm cache and workspace
	n := testing.AllocsPerRun(50, func() {
		ws.Reset()
		m.SampleJointWith(ws, cc, qs, rows, rngs)
	})
	if n != 0 {
		t.Fatalf("warm %d-column SampleJointWith allocates %v times per run, want 0", k, n)
	}
}

// TestExtendWithinReserveZeroAlloc pins Reserve: a model whose factor was
// sized for its final training set absorbs every AddObservation without
// reallocating the factor, so a warm extension allocates nothing.
func TestExtendWithinReserveZeroAlloc(t *testing.T) {
	const n0, extra = 12, 40
	rng := rand.New(rand.NewPCG(3, 3))
	pt := func() []float64 { return []float64{rng.Float64(), rng.Float64(), rng.Float64()} }
	xs := make([][]float64, n0)
	ys := make([]float64, n0)
	for i := range xs {
		xs[i], ys[i] = pt(), rng.NormFloat64()
	}
	adds := make([][]float64, extra+1)
	for i := range adds {
		adds[i] = pt()
	}
	g := New(kernel.NewMatern52(3), 1e-3)
	g.Reserve(n0 + len(adds))
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// The first call grows the scratch and target storage; the factor's
	// array must not move from then on.
	if err := g.AddObservation(adds[0], 0); err != nil {
		t.Fatal(err)
	}
	l := &g.chol.L.Data[0]
	g.x = slices.Grow(g.x, extra)
	g.cols[0].y = slices.Grow(g.cols[0].y, extra)
	g.cols[0].alpha = slices.Grow(g.cols[0].alpha, extra)
	i := 1
	allocs := testing.AllocsPerRun(extra-1, func() {
		if err := g.AddObservation(adds[i], rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("AddObservation within the reserve allocates %v times per run, want 0", allocs)
	}
	if &g.chol.L.Data[0] != l || g.N() != n0+extra+1 || g.Generation() != 1 {
		t.Fatalf("factor moved or refactorized: N %d, generation %d", g.N(), g.Generation())
	}
}

// TestPredictBatchWithWarmAllocs pins the warm-path batch prediction to
// zero heap allocations: all float64 scratch comes from the workspace and
// the cross-covariances from the cache.
func TestPredictBatchWithWarmAllocs(t *testing.T) {
	g, qs := cacheTestModel(t, 16, 3)
	cc := g.NewCrossCache()
	ws := mat.NewWorkspace()
	ws.Reset()
	g.PredictBatchWith(ws, cc, qs) // warm cache and workspace
	n := testing.AllocsPerRun(100, func() {
		ws.Reset()
		g.PredictBatchWith(ws, cc, qs)
	})
	if n != 0 {
		t.Fatalf("warm PredictBatchWith allocates %v times per run, want 0", n)
	}
}

// TestMultiSolveWarmZeroAlloc pins the k-column re-solve to zero heap
// allocations once its alpha storage and header scratch exist: five
// columns go through one SolveColsTo call in place.
func TestMultiSolveWarmZeroAlloc(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewPCG(4, 4))
	xs := make([][]float64, 24)
	ys := make([][]float64, k)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		for c := range ys {
			ys[c] = append(ys[c], rng.NormFloat64())
		}
	}
	m := NewMulti(kernel.NewMatern52(3), 1e-4, k)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, m.solve); n != 0 {
		t.Fatalf("warm %d-column solve allocates %v times per run, want 0", k, n)
	}
}
