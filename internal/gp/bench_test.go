package gp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

// benchData builds n noisy samples of a smooth 3-D surface, the same input
// dimensionality as pamo's per-clip outcome models.
func benchData(n int) ([][]float64, []float64) {
	rng := stats.NewRNG(uint64(n))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs[i] = x
		ys[i] = math.Sin(4*x[0]) + x[1]*x[2] + 0.01*rng.NormFloat64()
	}
	return xs, ys
}

func benchGP(b *testing.B, n int) *GP {
	b.Helper()
	xs, ys := benchData(n)
	g := New(kernel.NewMatern52(3), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	return g
}

var benchSizes = []int{50, 200, 800}

func BenchmarkGPFit(b *testing.B) {
	for _, n := range benchSizes {
		xs, ys := benchData(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			g := New(kernel.NewMatern52(3), 1e-4)
			for i := 0; i < b.N; i++ {
				if err := g.Fit(xs, ys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPAddObservation measures conditioning on one extra point via the
// incremental Cholesky fast path, the per-measurement cost of pamo's
// clipModels.refit after each observation.
func BenchmarkGPAddObservation(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			base := benchGP(b, n)
			x := []float64{0.31, 0.62, 0.93}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Extend grows the factor in place and AddObservation appends
				// to the inputs and targets, so each iteration conditions a
				// private copy of base with room for the new row.
				b.StopTimer()
				g := cloneForExtend(base)
				b.StartTimer()
				if err := g.AddObservation(x, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cloneForExtend deep-copies g's inputs, targets and factor, leaving spare
// capacity for one more point.
func cloneForExtend(g *GP) *GP {
	c := *g
	c.x = append(make([][]float64, 0, len(g.x)+1), g.x...)
	c.cols = []column{{
		y:     append(make(mat.Vector, 0, len(g.x)+1), g.cols[0].y...),
		mean:  g.cols[0].mean,
		alpha: g.cols[0].alpha.Clone(),
	}}
	n := g.chol.L.Rows
	l := &mat.Matrix{Rows: n, Cols: n, Data: make([]float64, n*n, (n+1)*(n+1))}
	copy(l.Data, g.chol.L.Data)
	c.chol = &mat.Cholesky{L: l, Jitter: g.chol.Jitter}
	return &c
}

func BenchmarkGPPredict(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGP(b, n)
		q := []float64{0.4, 0.5, 0.6}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Predict(q)
			}
		})
	}
}

func BenchmarkGPPredictMean(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGP(b, n)
		q := []float64{0.4, 0.5, 0.6}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.PredictMean(q)
			}
		})
	}
}

// BenchmarkGPSampleJoint draws 32 joint samples at 16 query points — the
// shape of one shared-sample acquisition round per clip metric.
func BenchmarkGPSampleJoint(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGP(b, n)
		rng := stats.NewRNG(7)
		qs := make([][]float64, 16)
		for i := range qs {
			qs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.SampleJoint(qs, 32, rng)
			}
		})
	}
}
