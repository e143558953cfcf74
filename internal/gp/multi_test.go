package gp

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// multiFixture is one k-column model next to k independent single-target
// GPs holding one column each.
type multiFixture struct {
	m     *Multi
	cols  []*GP
	mFall atomic.Uint64
	gFall atomic.Uint64
}

func newMultiFixture(k int, noise float64) *multiFixture {
	f := &multiFixture{m: NewMulti(kernel.NewMatern52(2), noise, k)}
	f.m.SetFallbackCounter(&f.mFall)
	for c := 0; c < k; c++ {
		g := New(kernel.NewMatern52(2), noise)
		g.SetFallbackCounter(&f.gFall)
		f.cols = append(f.cols, g)
	}
	return f
}

// colOf returns targets[c] for every row of a row-major target table.
func colOf(rows [][]float64, c int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[c]
	}
	return out
}

// transpose turns a row-major target table (one row per input) into one
// slice per column.
func transpose(rows [][]float64, k int) [][]float64 {
	out := make([][]float64, k)
	for c := range out {
		out[c] = colOf(rows, c)
	}
	return out
}

// FuzzMultiTargetVsIndependent differentially fuzzes the k-column exact GP
// against k independent single-target GPs fed the same inputs and one
// column of targets each. Sharing the factor, the cross-covariances and the
// posterior covariance must not change a single float: means, PredictBatch
// and joint draws (column c from the same RNG stream as GP c) are compared
// with ==, and so are the generations, which count refactorizations. The
// lifecycle covers Fit, AddObservation one point at a time, Append of a
// batch, duplicate inputs that at tiny noise force the Extend→refactor
// fallback, and SetTargets.
func FuzzMultiTargetVsIndependent(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(6), uint8(4), uint8(3))
	f.Add(uint64(42), uint8(1), uint8(3), uint8(2), uint8(10))
	f.Add(uint64(7), uint8(3), uint8(12), uint8(0), uint8(14))
	f.Add(uint64(99), uint8(2), uint8(1), uint8(7), uint8(6))
	f.Add(uint64(3), uint8(4), uint8(5), uint8(3), uint8(28))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, nRaw, addRaw, noiseRaw uint8) {
		k := 1 + int(kRaw)%5
		n0 := 1 + int(nRaw)%12
		adds := 2 + int(addRaw)%8
		noise := math.Pow(10, -float64(2+int(noiseRaw)%29)) // 1e-2 .. 1e-30
		rng := rand.New(rand.NewPCG(seed, 0x3c01))
		point := func() []float64 { return []float64{rng.Float64(), rng.Float64()} }
		targets := func() []float64 {
			ys := make([]float64, k)
			for c := range ys {
				ys[c] = 3*rng.NormFloat64() + float64(c)
			}
			return ys
		}

		fx := newMultiFixture(k, noise)
		xs := make([][]float64, n0)
		rows := make([][]float64, n0)
		for i := range xs {
			xs[i], rows[i] = point(), targets()
		}
		if err := fx.m.Fit(xs, transpose(rows, k)); err != nil {
			t.Skipf("fit: %v", err)
		}
		for c, g := range fx.cols {
			if err := g.Fit(xs, colOf(rows, c)); err != nil {
				t.Fatalf("column %d fit failed where the shared fit succeeded: %v", c, err)
			}
		}
		cc := fx.m.NewCrossCache()
		caches := make([]*CrossCache, k)
		for c, g := range fx.cols {
			caches[c] = g.NewCrossCache()
		}
		queries := [][]float64{point(), point(), point(), xs[0]}
		compare(t, fx, cc, caches, queries, seed, "after Fit")

		// One point at a time; the second add repeats an input exactly.
		for a := 0; a < adds; a++ {
			x, ys := point(), targets()
			if a == 1 {
				x = xs[int(seed%uint64(len(xs)))]
			}
			errM := fx.m.AddObservation(x, ys)
			for c, g := range fx.cols {
				if errG := g.AddObservation(x, ys[c]); (errG == nil) != (errM == nil) {
					t.Fatalf("add %d: column %d error %v vs shared %v", a, c, errG, errM)
				}
			}
			if errM != nil {
				t.Skipf("add %d: %v", a, errM)
			}
			compare(t, fx, cc, caches, queries, seed+uint64(a), "after AddObservation")
		}

		// A batch through Append (one solve per column) against per-point
		// AddObservation followed by the same final targets.
		batch := [][]float64{point(), fx.m.X()[0], point()}
		all := fx.m.N() + len(batch)
		final := make([][]float64, all)
		for i := range final {
			final[i] = targets()
		}
		gen := fx.m.Generation()
		refactored, err := fx.m.Append(batch, transpose(final, k))
		if err != nil {
			t.Skipf("append: %v", err)
		}
		if got := fx.m.Generation() - gen; got != uint64(refactored) {
			t.Fatalf("Append reported %d refactorizations, generation moved %d", refactored, got)
		}
		for c, g := range fx.cols {
			for _, x := range batch {
				if err := g.AddObservation(x, 0); err != nil {
					t.Fatalf("column %d add: %v", c, err)
				}
			}
			if err := g.SetTargets(colOf(final, c)); err != nil {
				t.Fatal(err)
			}
		}
		compare(t, fx, cc, caches, queries, seed^0xa5, "after Append")

		for i := range final {
			final[i] = targets()
		}
		if err := fx.m.SetTargets(transpose(final, k)); err != nil {
			t.Fatal(err)
		}
		for c, g := range fx.cols {
			if err := g.SetTargets(colOf(final, c)); err != nil {
				t.Fatal(err)
			}
		}
		compare(t, fx, cc, caches, queries, seed^0x5a, "after SetTargets")
		if a, b := fx.mFall.Load(), fx.gFall.Load(); a != b {
			t.Fatalf("shared model counted %d sampling fallbacks, independent models %d", a, b)
		}
	})
}

// compare checks every prediction and draw of the shared model against the
// independent column models for exact float equality.
func compare(t *testing.T, fx *multiFixture, cc *CrossCache, caches []*CrossCache, qs [][]float64, seed uint64, stage string) {
	t.Helper()
	k := len(fx.cols)
	for c, g := range fx.cols {
		if fx.m.N() != g.N() || fx.m.Generation() != g.Generation() {
			t.Fatalf("%s: column %d: N %d vs %d, generation %d vs %d", stage, c, fx.m.N(), g.N(), fx.m.Generation(), g.Generation())
		}
	}
	mu := make([]float64, k)
	cached := make([]float64, k)
	for _, x := range qs {
		fx.m.PredictMean(x, mu)
		cc.PredictMean(x, cached)
		v := fx.m.Predict(x, make([]float64, k))
		for c, g := range fx.cols {
			gm, gv := g.Predict(x)
			var one [1]float64
			caches[c].PredictMean(x, one[:])
			if mu[c] != g.PredictMean(x) || cached[c] != one[0] || gm != mu[c] || gv != v {
				t.Fatalf("%s: column %d at %v: mean %v/%v cached %v/%v predict (%v, %v) vs (%v, %v)",
					stage, c, x, mu[c], g.PredictMean(x), cached[c], one[0], mu[c], v, gm, gv)
			}
		}
	}
	bmu, bcov := fx.m.PredictBatch(qs)
	ws := mat.NewWorkspace()
	rngs := make([]*rand.Rand, k)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewPCG(seed, uint64(c)))
	}
	draws := make([][][]float64, k)
	for c := range draws {
		draws[c] = newRows(4, len(qs))
	}
	fx.m.SampleJointWith(ws, cc, qs, draws, rngs)
	for c, g := range fx.cols {
		gmu, gcov := g.PredictBatch(qs)
		for j := range gmu {
			if bmu.At(c, j) != gmu[j] {
				t.Fatalf("%s: column %d batch mean[%d] %v vs %v", stage, c, j, bmu.At(c, j), gmu[j])
			}
		}
		for i := range gcov.Data {
			if bcov.Data[i] != gcov.Data[i] {
				t.Fatalf("%s: column %d batch cov[%d] %v vs %v", stage, c, i, bcov.Data[i], gcov.Data[i])
			}
		}
		ws.Reset()
		want := g.SampleJointWith(ws, caches[c], qs, 4, rand.New(rand.NewPCG(seed, uint64(c))))
		for s := range want {
			for j := range want[s] {
				if draws[c][s][j] != want[s][j] {
					t.Fatalf("%s: column %d draw[%d][%d] %v vs %v", stage, c, s, j, draws[c][s][j], want[s][j])
				}
			}
		}
	}
}
