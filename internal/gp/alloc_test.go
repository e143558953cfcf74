//go:build !race

package gp

import (
	"math/rand/v2"
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
// allocating only its result once workspace and cache are warm: one block
// holding every returned row, the row headers, and the per-column slice.
// V = L⁻¹K*, the posterior covariance, its factor and the normal deviates
// all live in the workspace.
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
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(1, uint64(c)))
	}
	cc := m.NewCrossCache()
	ws := mat.NewWorkspace()
	m.SampleJointWith(ws, cc, qs, samples, rngs) // warm cache and workspace
	n := testing.AllocsPerRun(50, func() {
		ws.Reset()
		m.SampleJointWith(ws, cc, qs, samples, rngs)
	})
	if n != 3 {
		t.Fatalf("warm %d-column SampleJointWith allocates %v times per run, want 3 (its returned rows)", k, n)
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
