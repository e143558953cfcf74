package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization fails even
// after the maximum diagonal jitter has been applied.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ, plus the jitter that was added to the diagonal
// to make the factorization succeed.
type Cholesky struct {
	L      *Matrix
	Jitter float64
}

// Chol factorizes the symmetric positive definite matrix a. The input is not
// modified. It fails with ErrNotPositiveDefinite if a has a non-positive
// pivot.
func Chol(a *Matrix) (*Cholesky, error) {
	return cholWithJitter(a, 0)
}

// CholJitter factorizes a, progressively adding diagonal jitter
// (1e-10·scale, ×10 each retry, up to 1e-4·scale where scale is the mean
// diagonal) until the factorization succeeds. GP covariance matrices built
// from nearly-duplicate inputs routinely need this.
func CholJitter(a *Matrix) (*Cholesky, error) {
	c, err := cholWithJitter(a, 0)
	if err == nil {
		return c, nil
	}
	scale := meanDiag(a)
	if scale <= 0 {
		scale = 1
	}
	for j := 1e-10 * scale; j <= 1e-4*scale; j *= 10 {
		if c, err = cholWithJitter(a, j); err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w (after jitter up to %g)", ErrNotPositiveDefinite, 1e-4*scale)
}

func meanDiag(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		s += a.At(i, i)
	}
	return s / float64(a.Rows)
}

func cholWithJitter(a *Matrix, jitter float64) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Chol on non-square %dx%d", a.Rows, a.Cols))
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := cholInto(l, a, jitter); err != nil {
		return nil, err
	}
	return &Cholesky{L: l, Jitter: jitter}, nil
}

// Extend grows the factorization of the n×n matrix A to cover the (n+1)×
// (n+1) matrix obtained by appending col as the new last row/column and
// diag as the new diagonal element. It costs O(n²) — one triangular solve
// plus a copy — instead of the O(n³) of refactorizing from scratch. The
// jitter that stabilized the original factorization is applied to the new
// diagonal element too, so the extended factor represents A' + Jitter·I
// exactly like the original represented A + Jitter·I.
//
// It fails with ErrNotPositiveDefinite when the Schur complement of the new
// point is non-positive (the extended matrix is numerically singular);
// callers should fall back to a full CholJitter refactorization. A failed
// Extend leaves the factor untouched.
//
// L grows in place: its rows are re-strided inside the spare capacity of
// L.Data, which doubles whenever it runs out, so a run of extensions
// allocates O(log n) times instead of once per point. The *Matrix header is
// updated in place too, so every holder of c.L sees the grown factor — a
// shallow copy of a Cholesky aliases the original and must not be extended
// independently.
func (c *Cholesky) Extend(col Vector, diag float64) error {
	n := c.L.Rows
	if len(col) != n {
		panic(fmt.Sprintf("mat: Cholesky Extend dims %d vs %d", n, len(col)))
	}
	m := n + 1
	old := c.L.Data
	data := old
	if cap(data) < m*m {
		data = make([]float64, m*m, max(2*cap(data), m*m))
	}
	data = data[:m*m]
	// The new row lies beyond the current factor's n² elements, so solving
	// into it leaves the factor intact should the pivot be rejected.
	v := ForwardSolveTo(Vector(data[n*m:n*m+n]), c.L, col)
	d := diag + c.Jitter - v.Dot(v)
	if d <= 0 || math.IsNaN(d) {
		return ErrNotPositiveDefinite
	}
	// Last row first: row i moves from offset i·n to i·m ≥ i·n, past every
	// row not yet moved, and its upper triangle is cleared of stale values.
	for i := n - 1; i >= 0; i-- {
		copy(data[i*m:i*m+i+1], old[i*n:i*n+i+1])
		clear(data[i*m+i+1 : (i+1)*m])
	}
	data[n*m+n] = math.Sqrt(d)
	c.L.Rows, c.L.Cols, c.L.Data = m, m, data
	return nil
}

// SolveVec solves A·x = b given A = L·Lᵀ, returning a new vector.
func (c *Cholesky) SolveVec(b Vector) Vector {
	y := ForwardSolve(c.L, b)
	return BackSolveTrans(c.L, y)
}

// Solve solves A·X = B column-by-column, returning a new matrix.
func (c *Cholesky) Solve(b *Matrix) *Matrix {
	n := c.L.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("mat: Cholesky Solve dims %d vs %d", n, b.Rows))
	}
	out := NewMatrix(n, b.Cols)
	col := NewVector(n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.Data[i*b.Cols+j]
		}
		c.SolveVecTo(col, col)
		for i, x := range col {
			out.Data[i*out.Cols+j] = x
		}
	}
	return out
}

// LogDet returns log det(A) = 2·Σ log L[i][i].
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// Inverse returns A⁻¹ as a dense matrix. Prefer SolveVec when possible; this
// exists for the Laplace-approximation algebra that genuinely needs the
// full inverse.
func (c *Cholesky) Inverse() *Matrix {
	return c.InverseTo(NewMatrix(c.L.Rows, c.L.Rows))
}

// InverseTo writes A⁻¹ into the caller-owned n×n matrix dst and returns
// dst, without allocating. Row j of dst starts as the j-th unit vector and
// is solved in place, four rows per pass over L (SolveColsTo); a final
// in-place transpose puts solution j into column j. Every element is
// bit-identical to solving the identity's columns one at a time.
func (c *Cholesky) InverseTo(dst *Matrix) *Matrix {
	n := c.L.Rows
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("mat: InverseTo dst %dx%d, want %dx%d", dst.Rows, dst.Cols, n, n))
	}
	clear(dst.Data)
	var rows [4]Vector
	for j0 := 0; j0 < n; j0 += len(rows) {
		k := min(len(rows), n-j0)
		for t := range k {
			j := j0 + t
			rows[t] = dst.Row(j)
			rows[t][j] = 1
		}
		c.SolveColsTo(rows[:k])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.Data[i*n+j], dst.Data[j*n+i] = dst.Data[j*n+i], dst.Data[i*n+j]
		}
	}
	return dst
}

// ForwardSolve solves the lower-triangular system L·y = b.
func ForwardSolve(l *Matrix, b Vector) Vector {
	return ForwardSolveTo(NewVector(l.Rows), l, b)
}

// BackSolveTrans solves the upper-triangular system Lᵀ·x = y where l is
// lower triangular.
func BackSolveTrans(l *Matrix, y Vector) Vector {
	return BackSolveTransTo(NewVector(l.Rows), l, y)
}
