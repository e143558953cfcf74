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
		row := l.Data[i*l.Cols : i*l.Cols+i+1]
		y := dst[:i]
		for k, v := range row[:i] {
			sum -= v * y[k]
		}
		dst[i] = sum / row[i]
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
	cols := l.Cols
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.Data[k*cols+i] * dst[k]
		}
		dst[i] = sum / l.Data[i*cols+i]
	}
	return dst
}

// SolveVecTo solves A·x = b into dst given A = L·Lᵀ, without allocating.
// dst may alias b. It returns dst.
func (c *Cholesky) SolveVecTo(dst, b Vector) Vector {
	ForwardSolveTo(dst, c.L, b)
	return BackSolveTransTo(dst, c.L, dst)
}

// Multi-right-hand-side kernels. A triangular solve is latency-bound: each
// element is one long chain of dependent subtractions. The kernels below
// run four right-hand sides through one pass over L, each with its own
// accumulator, so the four chains overlap and every element of L is loaded
// once for all four. Each vector still subtracts its terms in the same
// ascending-k order and ends with the same division by the diagonal, so
// every result is bit-identical to the single-vector solve of that vector;
// a remainder of fewer than four takes the single-vector path.

// ForwardSolveRowsTo solves L·dst[j] = bs[j] for every j without
// allocating. dst[j] may alias bs[j] (but no other right-hand side). Each
// dst[j] is bit-identical to ForwardSolveTo(dst[j], l, bs[j]).
func ForwardSolveRowsTo(dst []Vector, l *Matrix, bs []Vector) {
	if len(dst) != len(bs) {
		panic(fmt.Sprintf("mat: ForwardSolveRowsTo %d destinations for %d right-hand sides", len(dst), len(bs)))
	}
	n := l.Rows
	for j := range bs {
		if len(bs[j]) != n || len(dst[j]) != n {
			panic(fmt.Sprintf("mat: ForwardSolveRowsTo dims %d/%d vs %d", len(dst[j]), len(bs[j]), n))
		}
	}
	j := 0
	for ; j+4 <= len(bs); j += 4 {
		forward4(l, dst[j], dst[j+1], dst[j+2], dst[j+3], bs[j], bs[j+1], bs[j+2], bs[j+3])
	}
	for ; j < len(bs); j++ {
		ForwardSolveTo(dst[j], l, bs[j])
	}
}

// SolveColsTo solves A·x = b in place for every b in bs, given A = L·Lᵀ,
// without allocating. Each result is bit-identical to SolveVecTo(b, b).
func (c *Cholesky) SolveColsTo(bs []Vector) {
	ForwardSolveRowsTo(bs, c.L, bs)
	j := 0
	for ; j+4 <= len(bs); j += 4 {
		backTrans4(c.L, bs[j], bs[j+1], bs[j+2], bs[j+3])
	}
	for ; j < len(bs); j++ {
		BackSolveTransTo(bs[j], c.L, bs[j])
	}
}

// forward4 is ForwardSolveTo on four right-hand sides in one pass over L.
// Lengths are checked by the caller.
func forward4(l *Matrix, d0, d1, d2, d3, b0, b1, b2, b3 Vector) {
	n := l.Rows
	for i := 0; i < n; i++ {
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		row := l.Data[i*l.Cols : i*l.Cols+i+1]
		y0, y1, y2, y3 := d0[:i], d1[:i], d2[:i], d3[:i]
		for k, v := range row[:i] {
			s0 -= v * y0[k]
			s1 -= v * y1[k]
			s2 -= v * y2[k]
			s3 -= v * y3[k]
		}
		diag := row[i]
		d0[i], d1[i], d2[i], d3[i] = s0/diag, s1/diag, s2/diag, s3/diag
	}
}

// backTrans4 is BackSolveTransTo on four vectors in place in one pass over
// L: each L[k][i] is read once for all four.
func backTrans4(l *Matrix, x0, x1, x2, x3 Vector) {
	n, cols := l.Rows, l.Cols
	for i := n - 1; i >= 0; i-- {
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for k := i + 1; k < n; k++ {
			v := l.Data[k*cols+i]
			s0 -= v * x0[k]
			s1 -= v * x1[k]
			s2 -= v * x2[k]
			s3 -= v * x3[k]
		}
		diag := l.Data[i*cols+i]
		x0[i], x1[i], x2[i], x3[i] = s0/diag, s1/diag, s2/diag, s3/diag
	}
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
//
// Rows are computed four at a time: for every column j left of the block,
// one pass over row j of L feeds the four rows' accumulators. Each element
// still subtracts its terms in ascending k and is divided by (or, on the
// diagonal, square-rooted from) the same value, and the diagonals fail in
// the same row order, so factor and error are those of the row-at-a-time
// loop.
func cholInto(l, a *Matrix, jitter float64) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Chol on non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if l.Rows != n || l.Cols != n {
		panic(fmt.Sprintf("mat: cholInto dst %dx%d, want %dx%d", l.Rows, l.Cols, n, n))
	}
	clear(l.Data)
	i0 := 0
	for ; i0+4 <= n; i0 += 4 {
		a0, a1, a2, a3 := a.Data[i0*n:(i0+1)*n], a.Data[(i0+1)*n:(i0+2)*n], a.Data[(i0+2)*n:(i0+3)*n], a.Data[(i0+3)*n:(i0+4)*n]
		l0, l1, l2, l3 := l.Data[i0*n:(i0+1)*n], l.Data[(i0+1)*n:(i0+2)*n], l.Data[(i0+2)*n:(i0+3)*n], l.Data[(i0+3)*n:(i0+4)*n]
		for j := 0; j < i0; j++ {
			s0, s1, s2, s3 := a0[j], a1[j], a2[j], a3[j]
			lj := l.Data[j*n : j*n+j+1]
			r0, r1, r2, r3 := l0[:j], l1[:j], l2[:j], l3[:j]
			for k, v := range lj[:j] {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			d := lj[j]
			l0[j], l1[j], l2[j], l3[j] = s0/d, s1/d, s2/d, s3/d
		}
		for i := i0; i < i0+4; i++ {
			if err := cholRow(l, a, i, i0, jitter); err != nil {
				return err
			}
		}
	}
	for i := i0; i < n; i++ {
		if err := cholRow(l, a, i, 0, jitter); err != nil {
			return err
		}
	}
	return nil
}

// cholRow computes elements from…i of row i of L, every column left of from
// already done.
func cholRow(l, a *Matrix, i, from int, jitter float64) error {
	n := a.Rows
	ai := a.Data[i*n : (i+1)*n]
	li := l.Data[i*n : (i+1)*n]
	for j := from; j <= i; j++ {
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
	return nil
}
