package mat

import (
	"math/rand/v2"
	"testing"
)

// benchSPD builds a deterministic SPD matrix of size n for benchmarking.
func benchSPD(n int) *Matrix {
	return randSPD(rand.New(rand.NewPCG(1, uint64(n))), n)
}

func BenchmarkCholJitter(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		a := benchSPD(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CholJitter(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCholeskyExtend measures appending one row/column to an existing
// n×n factor — the GP.AddObservation fast path — against the full
// refactorization BenchmarkCholJitter pays at the same size.
func BenchmarkCholeskyExtend(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		a := benchSPD(n + 1)
		sub := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sub.Set(i, j, a.At(i, j))
			}
		}
		col := NewVector(n)
		for i := 0; i < n; i++ {
			col[i] = a.At(i, n)
		}
		diag := a.At(n, n)
		base, err := Chol(sub)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			// Extend grows L in place, so every iteration extends a private
			// copy of the base factor that already has room for the new row
			// — the steady state of a run of extensions.
			l := &Matrix{Data: make([]float64, n*n, (n+1)*(n+1))}
			c := &Cholesky{L: l, Jitter: base.Jitter}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l.Rows, l.Cols, l.Data = n, n, l.Data[:n*n]
				copy(l.Data, base.L.Data)
				b.StartTimer()
				if err := c.Extend(col, diag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 50:
		return "n=50"
	case 200:
		return "n=200"
	default:
		return "n=800"
	}
}
