//go:build !race

package mat

import (
	"math/rand/v2"
	"testing"
)

// TestInPlaceOpsZeroAlloc pins the steady-state allocation budget of the
// workspace-backed hot path: once a workspace has grown to size, a full
// solve/multiply cycle must not touch the heap. (Skipped under -race, which
// instruments allocation.)
func TestInPlaceOpsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 21))
	a := ipRandSPD(rng, 32)
	c, err := Chol(a)
	if err != nil {
		t.Fatal(err)
	}
	rhs := Vector(ipRandMatrix(rng, 1, 32).Data)
	x := ipRandMatrix(rng, 32, 32)
	w := NewWorkspace()
	cycle := func() {
		w.Reset()
		dst := w.Vec(32)
		c.SolveVecTo(dst, rhs)
		m := w.Mat(32, 32)
		x.MulTo(m, a)
		f := w.Mat(32, 32)
		if _, err := CholJitterInto(f, a); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the arena
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warm workspace cycle allocates %v times per run, want 0", n)
	}
}

// TestExtendWithinCapacityZeroAlloc pins Extend's in-place growth: a
// factor whose backing array was reserved for its final size absorbs every
// extension without allocating.
func TestExtendWithinCapacityZeroAlloc(t *testing.T) {
	const n0, final = 4, 40
	rng := rand.New(rand.NewPCG(2, 9))
	a := ipRandSPD(rng, final)
	sub := NewMatrix(n0, n0)
	for i := 0; i < n0; i++ {
		copy(sub.Row(i), a.Row(i)[:n0])
	}
	l := &Matrix{Rows: n0, Cols: n0, Data: make([]float64, n0*n0, final*final)}
	c, err := CholJitterInto(l, sub)
	if err != nil {
		t.Fatal(err)
	}
	col := make(Vector, final)
	grow := func() {
		n := c.L.Rows
		for i := 0; i < n; i++ {
			col[i] = a.At(n, i)
		}
		if err := c.Extend(col[:n], a.At(n, n)); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(final-n0-1, grow); allocs != 0 {
		t.Fatalf("Extend within reserved capacity allocates %v times per run, want 0", allocs)
	}
	if c.L.Rows != final {
		t.Fatalf("factor has %d rows, want %d", c.L.Rows, final)
	}
}

// TestSolveColsToZeroAlloc pins the multi-right-hand-side kernels at zero
// allocations: SolveColsTo and ForwardSolveRowsTo on caller-owned vectors
// (five of them, so the four-wide pass and the remainder both run) and
// InverseTo into a caller-owned matrix.
func TestSolveColsToZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	const n = 24
	c, err := Chol(ipRandSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]Vector, 5)
	ys := make([]Vector, 5)
	for j := range bs {
		bs[j] = Vector(ipRandMatrix(rng, 1, n).Data)
		ys[j] = NewVector(n)
	}
	inv := NewMatrix(n, n)
	run := func() {
		c.SolveColsTo(bs)
		ForwardSolveRowsTo(ys, c.L, bs)
		c.InverseTo(inv)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("multi-right-hand-side solves allocate %v times per run, want 0", allocs)
	}
}
