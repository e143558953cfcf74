package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

func ipRandMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func ipRandSPD(rng *rand.Rand, n int) *Matrix {
	b := ipRandMatrix(rng, n, n+2)
	a := b.Mul(b.T())
	a.AddScaledEye(0.5)
	return a
}

// TestMulToMatchesMul pins the blocked kernel bit-exact against the
// reference product, including shapes that straddle the tile boundary.
func TestMulToMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	naive := func(a, b *Matrix) *Matrix {
		out := NewMatrix(a.Rows, b.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				var s float64
				for k := 0; k < a.Cols; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				out.Set(i, j, s)
			}
		}
		return out
	}
	for _, dims := range [][3]int{{3, 4, 5}, {1, 1, 1}, {7, 130, 2}, {5, 3, 129}, {2, 2, 300}} {
		a := ipRandMatrix(rng, dims[0], dims[1])
		b := ipRandMatrix(rng, dims[1], dims[2])
		want := naive(a, b)
		got := a.Mul(b)
		dst := NewMatrix(dims[0], dims[2])
		for i := range dst.Data {
			dst.Data[i] = math.NaN() // MulTo must fully overwrite dst
		}
		got2 := a.MulTo(dst, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("dims %v: Mul[%d] = %g, want %g", dims, i, got.Data[i], want.Data[i])
			}
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("dims %v: MulTo[%d] = %g, want %g", dims, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 12))
	m := ipRandMatrix(rng, 9, 17)
	v := Vector(ipRandMatrix(rng, 1, 17).Data)
	want := m.MulVec(v)
	got := m.MulVecTo(NewVector(9), v)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecTo[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestSolveToAliasing checks the in-place triangular solves against their
// allocating counterparts, including the dst==b aliasing case.
func TestSolveToAliasing(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for _, n := range []int{1, 2, 5, 17} {
		a := ipRandSPD(rng, n)
		c, err := Chol(a)
		if err != nil {
			t.Fatal(err)
		}
		b := Vector(ipRandMatrix(rng, 1, n).Data)

		wantY := ForwardSolve(c.L, b)
		gotY := ForwardSolveTo(NewVector(n), c.L, b)
		// aliased: dst starts as a copy of b and is solved in place
		aliasY := b.Clone()
		ForwardSolveTo(aliasY, c.L, aliasY)
		wantX := BackSolveTrans(c.L, wantY)
		aliasX := wantY.Clone()
		BackSolveTransTo(aliasX, c.L, aliasX)

		wantSolve := c.SolveVec(b)
		gotSolve := c.SolveVecTo(b.Clone(), b)

		for i := 0; i < n; i++ {
			if gotY[i] != wantY[i] || aliasY[i] != wantY[i] {
				t.Fatalf("n=%d: ForwardSolveTo[%d] = %g/%g, want %g", n, i, gotY[i], aliasY[i], wantY[i])
			}
			if aliasX[i] != wantX[i] {
				t.Fatalf("n=%d: BackSolveTransTo[%d] = %g, want %g", n, i, aliasX[i], wantX[i])
			}
			if gotSolve[i] != wantSolve[i] {
				t.Fatalf("n=%d: SolveVecTo[%d] = %g, want %g", n, i, gotSolve[i], wantSolve[i])
			}
		}
	}
}

// TestCholJitterInto pins the workspace factorization bit-exact against
// CholJitter, for both a clean SPD matrix and one needing jitter.
func TestCholJitterInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 14))
	a := ipRandSPD(rng, 8)
	// A rank-deficient PSD matrix forces the jitter ladder.
	v := ipRandMatrix(rng, 8, 1)
	sing := v.Mul(v.T())
	for _, m := range []*Matrix{a, sing} {
		want, errWant := CholJitter(m)
		dst := NewMatrix(8, 8)
		for i := range dst.Data {
			dst.Data[i] = math.NaN()
		}
		got, errGot := CholJitterInto(dst, m)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("error mismatch: %v vs %v", errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if got.Jitter != want.Jitter {
			t.Fatalf("jitter %g, want %g", got.Jitter, want.Jitter)
		}
		for i := range want.L.Data {
			if got.L.Data[i] != want.L.Data[i] {
				t.Fatalf("L[%d] = %g, want %g", i, got.L.Data[i], want.L.Data[i])
			}
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	w := NewWorkspace()
	v := w.Vec(4)
	for i := range v {
		v[i] = float64(i + 1)
	}
	m := w.Mat(3, 3)
	m.Set(0, 0, 7)
	// The matrix must not overlap the vector.
	if v[3] != 4 {
		t.Fatalf("workspace Mat clobbered earlier Vec: %v", v)
	}
	w.Reset()
	v2 := w.Vec(4)
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("Vec after Reset not zeroed at %d: %g", i, x)
		}
	}
	m2 := w.Mat(3, 3)
	for i, x := range m2.Data {
		if x != 0 {
			t.Fatalf("Mat after Reset not zeroed at %d: %g", i, x)
		}
	}
	// Growth mid-cycle must leave earlier slices intact.
	w.Reset()
	small := w.Vec(2)
	small[0], small[1] = 5, 6
	big := w.Vec(1 << 12)
	big[0] = 1
	if small[0] != 5 || small[1] != 6 {
		t.Fatalf("growth invalidated earlier slice: %v", small)
	}
	// Pool round trip.
	PutWorkspace(w)
	w2 := GetWorkspace()
	defer PutWorkspace(w2)
	if got := w2.Vec(3); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("pooled workspace not reset: %v", got)
	}
}

func BenchmarkSolveVecTo(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 15))
	a := ipRandSPD(rng, 64)
	c, err := Chol(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := Vector(ipRandMatrix(rng, 1, 64).Data)
	dst := NewVector(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SolveVecTo(dst, rhs)
	}
}

func BenchmarkMulTo(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 16))
	x := ipRandMatrix(rng, 96, 96)
	y := ipRandMatrix(rng, 96, 96)
	dst := NewMatrix(96, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulTo(dst, y)
	}
}

// seedChol is the Cholesky kernel as first written, reading and writing
// through At/Set: cholInto's row-slice loop must reproduce it bit for bit.
func seedChol(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, true
}

// seedInverse is Inverse as first written: Solve against an explicit
// identity, one allocating SolveVec per column.
func seedInverse(c *Cholesky) *Matrix {
	n := c.L.Rows
	out := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		e := NewVector(n)
		e[j] = 1
		x := c.SolveVec(e)
		for i := 0; i < n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// TestRowSliceKernelsMatchSeed holds the row-slice Cholesky and the
// in-place inverse to the At-based originals, bit for bit, on random SPD
// and singular-but-jitterable matrices, into a dirty reused factor.
func TestRowSliceKernelsMatchSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(12)
		a := ipRandSPD(rng, n)
		if trial%3 == 2 && n > 1 {
			for j := 0; j < n; j++ { // duplicate row/column 0: singular
				a.Set(1, j, a.At(0, j))
				a.Set(j, 1, a.At(j, 0))
			}
			a.Set(1, 1, a.At(0, 0))
		}
		for _, jitter := range []float64{0, 1e-8} {
			want, ok := seedChol(a, jitter)
			l := ipRandMatrix(rng, n, n) // stale contents must not leak
			err := cholInto(l, a, jitter)
			if ok != (err == nil) {
				t.Fatalf("trial %d jitter %g: seed ok=%v, cholInto err=%v", trial, jitter, ok, err)
			}
			if !ok {
				continue
			}
			for i := range want.Data {
				if math.Float64bits(l.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("trial %d jitter %g: L[%d] = %v, seed %v", trial, jitter, i, l.Data[i], want.Data[i])
				}
			}
			c := &Cholesky{L: l, Jitter: jitter}
			inv, seed := c.InverseTo(ipRandMatrix(rng, n, n)), seedInverse(c)
			for i := range seed.Data {
				if math.Float64bits(inv.Data[i]) != math.Float64bits(seed.Data[i]) {
					t.Fatalf("trial %d: inverse[%d] = %v, seed %v", trial, i, inv.Data[i], seed.Data[i])
				}
			}
		}
	}
}
