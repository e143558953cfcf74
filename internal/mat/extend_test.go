package mat

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// TestCholeskyExtendFailureLeavesFactorUntouched pins the error contract of
// the incremental extension: a rejected Extend must not modify the factor,
// so callers (gp.AddObservation's CholJitter fallback, and anything that
// retries) can keep using it. The instance is chosen so the new pivot is
// exactly negative, not rounding-borderline: A = I₂, col = [1, 1], diag = 1
// gives d = 1 + 0 − (1² + 1²) = −1.
func TestCholeskyExtendFailureLeavesFactorUntouched(t *testing.T) {
	c, err := Chol(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), c.L.Data...)
	col := NewVector(2)
	col[0], col[1] = 1, 1
	if err := c.Extend(col, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
	if c.L.Rows != 2 || c.L.Cols != 2 {
		t.Fatalf("factor grew to %dx%d on a failed extension", c.L.Rows, c.L.Cols)
	}
	for i, v := range c.L.Data {
		if v != before[i] {
			t.Fatalf("L.Data[%d] changed from %v to %v on a failed extension", i, before[i], v)
		}
	}
	// The untouched factor must still solve correctly (A = I ⇒ x = b)...
	b := NewVector(2)
	b[0], b[1] = 3, -4
	x := c.SolveVec(b)
	if x[0] != 3 || x[1] != -4 {
		t.Fatalf("solve after failed extension: got %v", x)
	}
	// ...and still accept a valid extension.
	ok := NewVector(2)
	if err := c.Extend(ok, 2); err != nil {
		t.Fatalf("valid extension after failed one: %v", err)
	}
	if c.L.Rows != 3 {
		t.Fatalf("factor is %dx%d after valid extension", c.L.Rows, c.L.Cols)
	}
}

// FuzzCholeskyExtendVsRefactor differentially fuzzes the O(n²) incremental
// extension against a from-scratch factorization of the same matrix: for a
// random SPD matrix, factoring the leading block and extending by the last
// row/column must solve linear systems identically (to conditioning-scaled
// round-off) to the full O(n³) factorization. A rejected extension is only
// acceptable when the full factorization also fails at zero jitter — the two
// paths must agree on feasibility, not just on values.
func FuzzCholeskyExtendVsRefactor(f *testing.F) {
	f.Add(uint64(1), 4)
	f.Add(uint64(42), 9)
	f.Add(uint64(7), 1)
	f.Add(uint64(1234), 20)
	f.Fuzz(func(t *testing.T, seed uint64, n int) {
		n = 1 + absiE(n)%24
		rng := rand.New(rand.NewPCG(seed, 0xC401))
		a := randSPD(rng, n+1)

		sub := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sub.Set(i, j, a.At(i, j))
			}
		}
		c, err := Chol(sub)
		if err != nil {
			t.Skip("leading block not factorizable at zero jitter")
		}
		col := NewVector(n)
		for i := 0; i < n; i++ {
			col[i] = a.At(i, n)
		}
		extErr := c.Extend(col, a.At(n, n))
		full, fullErr := Chol(a)
		if extErr != nil {
			if fullErr == nil {
				t.Fatalf("Extend rejected a matrix the full factorization accepts: %v", extErr)
			}
			return
		}
		if fullErr != nil {
			t.Skip("full factorization needed jitter; extension got lucky on rounding")
		}

		b := NewVector(n + 1)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xe := c.SolveVec(b)
		xf := full.SolveVec(b)
		// Solution agreement scaled by the solution magnitude: both factor
		// the same matrix, differing only in round-off amplified by κ(A).
		var scale float64 = 1
		for i := range xf {
			scale = math.Max(scale, math.Abs(xf[i]))
		}
		for i := range xe {
			if math.Abs(xe[i]-xf[i]) > 1e-6*scale {
				t.Fatalf("n=%d: x[%d] = %v (extended) vs %v (full)", n, i, xe[i], xf[i])
			}
		}
	})
}

// extendByCopy is the reference extension Extend replaced: a fresh zeroed
// (n+1)² factor with the old rows copied in. In-place growth must produce
// the same factor bit for bit.
func extendByCopy(l *Matrix, col Vector, diag, jitter float64) (*Matrix, bool) {
	n := l.Rows
	v := ForwardSolve(l, col)
	d := diag + jitter - v.Dot(v)
	if d <= 0 || math.IsNaN(d) {
		return nil, false
	}
	out := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(out.Data[i*(n+1):i*(n+1)+i+1], l.Data[i*n:i*n+i+1])
	}
	copy(out.Data[n*(n+1):n*(n+1)+n], v)
	out.Set(n, n, math.Sqrt(d))
	return out, true
}

// TestCholeskyExtendInPlaceMatchesCopy grows one factor point by point
// through Extend and through the copying reference, comparing every element
// with ==: re-striding inside spare capacity must not change a float, must
// clear the stale upper triangle, and must reallocate only when the
// capacity doubles. A rejected extension in the middle of the run — with
// the new row already solved into spare capacity — must leave the factor
// exactly as it was.
func TestCholeskyExtendInPlaceMatchesCopy(t *testing.T) {
	const start, end = 3, 40
	rng := rand.New(rand.NewPCG(8, 13))
	a := randSPD(rng, end)
	sub := NewMatrix(start, start)
	for i := 0; i < start; i++ {
		copy(sub.Row(i), a.Row(i)[:start])
	}
	c, err := Chol(sub)
	if err != nil {
		t.Fatal(err)
	}
	ref := c.L.Clone()
	header := c.L
	reallocs := 0
	for n := start; n < end; n++ {
		col := NewVector(n)
		for i := range col {
			col[i] = a.At(i, n)
		}
		if n == 20 {
			// d = 0 − ‖L⁻¹col‖² < 0: rejected after solving into spare room.
			before := append([]float64(nil), c.L.Data...)
			if err := c.Extend(col, -1); !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("n=%d: expected ErrNotPositiveDefinite, got %v", n, err)
			}
			if c.L.Rows != n || len(c.L.Data) != n*n {
				t.Fatalf("n=%d: failed extension resized the factor to %dx%d", n, c.L.Rows, c.L.Cols)
			}
			for i, v := range c.L.Data {
				if v != before[i] {
					t.Fatalf("n=%d: failed extension changed L.Data[%d]", n, i)
				}
			}
		}
		first := &c.L.Data[0]
		if err := c.Extend(col, a.At(n, n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if &c.L.Data[0] != first {
			reallocs++
		}
		var ok bool
		if ref, ok = extendByCopy(ref, col, a.At(n, n), c.Jitter); !ok {
			t.Fatalf("n=%d: reference rejected the extension", n)
		}
		if c.L != header {
			t.Fatalf("n=%d: Extend replaced the *Matrix header", n)
		}
		for i, v := range ref.Data {
			if c.L.Data[i] != v {
				t.Fatalf("n=%d: L.Data[%d] = %v, reference %v", n+1, i, c.L.Data[i], v)
			}
		}
	}
	// Capacity doubles from 9: 18, 36, 72, 144, 288, 576, 1152, 2304 hold
	// every size up to 40² = 1600.
	if reallocs > 8 {
		t.Fatalf("%d reallocations over %d extensions, want capacity doubling", reallocs, end-start)
	}
}

func absiE(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
