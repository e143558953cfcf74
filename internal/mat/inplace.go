package mat

import (
	"fmt"
	"math"
)

// mulTile is the column-tile width for matrix multiply. Tiling runs over
// output columns only: every output element still accumulates its k-terms in
// ascending order, so tiled and untiled products are bit-identical — the
// blocking changes which elements are resident in cache, never the float
// summation order.
const mulTile = 128

// MulTo computes dst = m·b without allocating. dst must be Rows×b.Cols and
// must not alias m or b. It returns dst. The result is bit-identical to Mul.
func (m *Matrix) MulTo(dst, b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTo dims %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTo dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for j0 := 0; j0 < b.Cols; j0 += mulTile {
		j1 := j0 + mulTile
		if j1 > b.Cols {
			j1 = b.Cols
		}
		for i := 0; i < m.Rows; i++ {
			ri := m.Data[i*m.Cols : (i+1)*m.Cols]
			oi := dst.Data[i*dst.Cols+j0 : i*dst.Cols+j1]
			for k, a := range ri {
				if a == 0 {
					continue
				}
				bk := b.Data[k*b.Cols+j0 : k*b.Cols+j1]
				for j, bv := range bk {
					oi[j] += a * bv
				}
			}
		}
	}
	return dst
}

// MulVecTo computes dst = m·v without allocating. dst must have length Rows
// and must not alias v. It returns dst.
func (m *Matrix) MulVecTo(dst, v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mat: MulVecTo dims %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTo dst %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Row(i).Dot(v)
	}
	return dst
}

// ForwardSolveTo solves L·y = b into dst without allocating. dst may alias b
// (forward substitution reads b[i] before writing dst[i]). It returns dst.
func ForwardSolveTo(dst Vector, l *Matrix, b Vector) Vector {
	n := l.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: ForwardSolveTo dims %d/%d vs %d", len(dst), len(b), n))
	}
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Data[i*l.Cols : i*l.Cols+i]
		for k, v := range row {
			sum -= v * dst[k]
		}
		dst[i] = sum / l.At(i, i)
	}
	return dst
}

// BackSolveTransTo solves Lᵀ·x = y into dst without allocating, where l is
// lower triangular. dst may alias y. It returns dst.
func BackSolveTransTo(dst Vector, l *Matrix, y Vector) Vector {
	n := l.Rows
	if len(y) != n || len(dst) != n {
		panic(fmt.Sprintf("mat: BackSolveTransTo dims %d/%d vs %d", len(dst), len(y), n))
	}
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * dst[k]
		}
		dst[i] = sum / l.At(i, i)
	}
	return dst
}

// SolveVecTo solves A·x = b into dst given A = L·Lᵀ, without allocating.
// dst may alias b. It returns dst.
func (c *Cholesky) SolveVecTo(dst, b Vector) Vector {
	ForwardSolveTo(dst, c.L, b)
	return BackSolveTransTo(dst, c.L, dst)
}

// CholJitterInto factorizes a into the caller-owned n×n factor matrix l,
// with the same progressive-jitter ladder as CholJitter, and returns a
// Cholesky whose L field is l. Nothing is allocated, not even on failure:
// jitter retries reuse l, and a matrix no jitter rescues returns the bare
// ErrNotPositiveDefinite (posterior samplers hit that path once per draw).
// The factor values are bit-identical to CholJitter's.
func CholJitterInto(l, a *Matrix) (Cholesky, error) {
	if err := cholInto(l, a, 0); err == nil {
		return Cholesky{L: l}, nil
	}
	scale := meanDiag(a)
	if scale <= 0 {
		scale = 1
	}
	for j := 1e-10 * scale; j <= 1e-4*scale; j *= 10 {
		if err := cholInto(l, a, j); err == nil {
			return Cholesky{L: l, Jitter: j}, nil
		}
	}
	return Cholesky{}, ErrNotPositiveDefinite
}

// cholInto factorizes a+jitter·I into the caller-owned matrix l, zeroing it
// first so retries and reused workspace memory start clean.
func cholInto(l, a *Matrix, jitter float64) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Chol on non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("mat: cholInto dst %dx%d, want %dx%d", l.Rows, l.Cols, n, n))
	}
	clear(l.Data)
	for i := 0; i < n; i++ {
		ai := a.Data[i*n : (i+1)*n]
		li := l.Data[i*n : (i+1)*n]
		for j := 0; j <= i; j++ {
			sum := ai[j]
			if i == j {
				sum += jitter
			}
			lj := l.Data[j*n : j*n+j]
			for k, v := range lj {
				sum -= li[k] * v
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotPositiveDefinite
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / l.Data[j*n+j]
			}
		}
	}
	return nil
}
