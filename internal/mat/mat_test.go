package mat

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Identity returns the n×n identity matrix (a fixture of mat's tests).
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %v", got)
	}
	if got := v.Mean(); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := v.Max(); got != 3 {
		t.Errorf("Max = %v", got)
	}
	if got := v.Min(); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := v.ArgMax(); got != 2 {
		t.Errorf("ArgMax = %v", got)
	}
	if got := v.Norm2(); !almostEq(got, math.Sqrt(14), 1e-12) {
		t.Errorf("Norm2 = %v", got)
	}
	w := v.Clone()
	w.Scale(2)
	if v[0] != 1 || w[0] != 2 {
		t.Errorf("Clone is not independent: %v %v", v, w)
	}
	w.AddScaled(-1, Vector{2, 4, 6})
	for _, x := range w {
		if x != 0 {
			t.Errorf("AddScaled result %v, want zeros", w)
		}
	}
	u := Vector{1, 1, 1}
	u.Add(Vector{1, 2, 3}).Sub(Vector{2, 3, 4})
	for _, x := range u {
		if x != 0 {
			t.Errorf("Add/Sub result %v, want zeros", u)
		}
	}
}

func TestEmptyVectorMean(t *testing.T) {
	if got := (Vector{}).Mean(); got != 0 {
		t.Fatalf("empty Mean = %v, want 0", got)
	}
}

func TestMatrixFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %+v", m)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestMatrixRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatrixMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec(Vector{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T wrong: %+v", at)
	}
}

func TestIdentityMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Identity(2).Mul(a); got.At(0, 0) != 1 || got.At(1, 1) != 4 || got.At(0, 1) != 2 {
		t.Fatalf("I·A != A: %+v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 1}})
	if d := a.SymmetricMaxAbsOffDiag(); d != 2 {
		t.Fatalf("asymmetry = %v, want 2", d)
	}
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %+v", a)
	}
	if d := a.SymmetricMaxAbsOffDiag(); d != 0 {
		t.Fatalf("post-Symmetrize asymmetry = %v", d)
	}
}

// randSPD builds a random symmetric positive definite matrix A = BᵀB + n·I.
func randSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b)
	a.AddScaledEye(float64(n))
	return a
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 5, 20} {
		a := randSPD(rng, n)
		c, err := Chol(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := c.L.Mul(c.L.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(recon.At(i, j), a.At(i, j), 1e-9*float64(n)) {
					t.Fatalf("n=%d: recon[%d][%d]=%v want %v", n, i, j, recon.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 3, 10} {
		a := randSPD(rng, n)
		x := NewVector(n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		c, err := Chol(a)
		if err != nil {
			t.Fatal(err)
		}
		got := c.SolveVec(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				t.Fatalf("n=%d: solve[%d]=%v want %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskySolveMatrixAndInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randSPD(rng, 6)
	c, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inverse()
	prod := a.Mul(inv)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestCholeskyLogDet(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	c, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LogDet(); !almostEq(got, math.Log(36), 1e-12) {
		t.Fatalf("LogDet = %v, want log 36", got)
	}
}

func TestCholNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Chol(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestCholJitterRescuesSingular(t *testing.T) {
	// Rank-1 PSD matrix: plain Chol fails, jittered succeeds.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Chol(a); err == nil {
		t.Fatal("expected plain Chol to fail on singular matrix")
	}
	c, err := CholJitter(a)
	if err != nil {
		t.Fatalf("CholJitter failed: %v", err)
	}
	if c.Jitter <= 0 {
		t.Fatalf("expected positive jitter, got %v", c.Jitter)
	}
}

func TestTriangularSolves(t *testing.T) {
	l := FromRows([][]float64{{2, 0}, {1, 3}})
	y := ForwardSolve(l, Vector{4, 7})
	if !almostEq(y[0], 2, 1e-12) || !almostEq(y[1], 5.0/3, 1e-12) {
		t.Fatalf("ForwardSolve = %v", y)
	}
	x := BackSolveTrans(l, Vector{2, 3})
	// Lᵀ = [[2,1],[0,3]]; x2 = 1, x1 = (2-1)/2 = 0.5
	if !almostEq(x[1], 1, 1e-12) || !almostEq(x[0], 0.5, 1e-12) {
		t.Fatalf("BackSolveTrans = %v", x)
	}
}

// Property: for random SPD A and random b, x = Chol(A).SolveVec(b)
// satisfies A·x = b.
func TestCholeskySolveProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 1 + int(seed%8)
		a := randSPD(r, n)
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		c, err := CholJitter(a)
		if err != nil {
			return false
		}
		x := c.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	_ = rng
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	a.Set(0, 0, 99)
	if b.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { NewMatrix(-1, 2) },
		func() { FromRows([][]float64{{1}}).MulVec(Vector{1, 2}) },
		func() { FromRows([][]float64{{1}}).Mul(FromRows([][]float64{{1, 2}, {3, 4}})) },
		func() { FromRows([][]float64{{1, 2}}).AddScaledEye(1) },
		func() { FromRows([][]float64{{1}}).Add(FromRows([][]float64{{1, 2}})) },
		func() { FromRows([][]float64{{1, 2}}).Symmetrize() },
		func() { FromRows([][]float64{{1, 2}}).SymmetricMaxAbsOffDiag() },
		func() { ForwardSolve(Identity(2), Vector{1}) },
		func() { BackSolveTrans(Identity(2), Vector{1}) },
		func() { _, _ = Chol(FromRows([][]float64{{1, 2}})) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCholeskySolveDimMismatchPanics(t *testing.T) {
	c, err := Chol(Identity(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Solve(NewMatrix(3, 1))
}

func TestCholJitterFailsOnIndefinite(t *testing.T) {
	// A strongly indefinite matrix cannot be rescued by the bounded jitter.
	a := FromRows([][]float64{{1, 100}, {100, 1}})
	_, err := CholJitter(a)
	if err == nil {
		t.Fatal("expected CholJitter to give up on an indefinite matrix")
	}
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func BenchmarkCholesky50(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 10))
	a := randSPD(rng, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Chol(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCholeskyExtendMatchesFullFactorization(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, n := range []int{1, 3, 8, 25} {
		a := randSPD(rng, n+1)
		// Factor the leading n×n block, then extend by the last row/col.
		sub := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sub.Set(i, j, a.At(i, j))
			}
		}
		c, err := Chol(sub)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		col := NewVector(n)
		for i := 0; i < n; i++ {
			col[i] = a.At(i, n)
		}
		if err := c.Extend(col, a.At(n, n)); err != nil {
			t.Fatalf("n=%d extend: %v", n, err)
		}
		full, err := Chol(a)
		if err != nil {
			t.Fatalf("n=%d full: %v", n, err)
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= i; j++ {
				if !almostEq(c.L.At(i, j), full.L.At(i, j), 1e-9*float64(n+1)) {
					t.Fatalf("n=%d: L[%d][%d]=%v want %v", n, i, j, c.L.At(i, j), full.L.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyExtendRepeatedSolves(t *testing.T) {
	// Grow a factorization one point at a time and check A·x = b solves
	// against a from-scratch factorization at every size.
	rng := rand.New(rand.NewPCG(21, 22))
	const max = 12
	a := randSPD(rng, max)
	c, err := Chol(&Matrix{Rows: 1, Cols: 1, Data: []float64{a.At(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < max; n++ {
		col := NewVector(n)
		for i := 0; i < n; i++ {
			col[i] = a.At(i, n)
		}
		if err := c.Extend(col, a.At(n, n)); err != nil {
			t.Fatalf("extend to %d: %v", n+1, err)
		}
		b := NewVector(n + 1)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := c.SolveVec(b)
		ax := NewVector(n + 1)
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				ax[i] += a.At(i, j) * x[j]
			}
		}
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-8) {
				t.Fatalf("n=%d: (Ax)[%d]=%v want %v", n+1, i, ax[i], b[i])
			}
		}
	}
}

func TestCholeskyExtendPreservesJitter(t *testing.T) {
	// A factor produced with jitter must extend the jittered matrix, not the
	// raw one: reconstructing L·Lᵀ should give A + Jitter·I on the diagonal.
	a := randSPD(rand.New(rand.NewPCG(31, 32)), 4)
	c, err := cholWithJitter(a, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	col := NewVector(4)
	for i := range col {
		col[i] = 0.1 * float64(i)
	}
	const diag = 6.0
	if err := c.Extend(col, diag); err != nil {
		t.Fatal(err)
	}
	recon := c.L.Mul(c.L.T())
	if !almostEq(recon.At(4, 4), diag+0.5, 1e-9) {
		t.Fatalf("extended diagonal %v, want %v", recon.At(4, 4), diag+0.5)
	}
}

func TestCholeskyExtendRejectsSingular(t *testing.T) {
	// Extending with a duplicate of an existing point makes the matrix
	// exactly singular; Extend must refuse rather than produce NaNs.
	a := Identity(2)
	a.Set(0, 1, 0.9)
	a.Set(1, 0, 0.9)
	c, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	col := NewVector(2)
	col[0], col[1] = 1, 0.9 // identical to row 0
	if err := c.Extend(col, 1); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyExtendDimMismatchPanics(t *testing.T) {
	c, err := Chol(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong column length")
		}
	}()
	_ = c.Extend(NewVector(2), 1)
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Scale multiplies every element of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// ArgMax returns the index of the maximum element of v.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// Scale multiplies every element by a in place and returns m.
func (m *Matrix) Scale(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}
