package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// sameBits fails the test unless got and want are bit-identical.
func sameBits(t *testing.T, what string, got, want Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, single-vector solve %v", what, i, got[i], want[i])
		}
	}
}

// FuzzMultiRHSVsSingle holds the multi-right-hand-side kernels to the
// single-vector solves, bit for bit: SolveColsTo against SolveVecTo,
// ForwardSolveRowsTo (into fresh rows and in place) against ForwardSolveTo,
// and InverseTo against solving the identity's columns one at a time. The
// right-hand-side count runs through every remainder of the four-wide pass.
func FuzzMultiRHSVsSingle(f *testing.F) {
	for _, s := range [][3]uint64{{1, 0, 0}, {2, 1, 1}, {3, 5, 4}, {4, 13, 7}, {5, 48, 9}, {6, 33, 3}} {
		f.Add(s[0], uint8(s[1]), uint8(s[2]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw uint8) {
		n, k := int(nRaw)%49, int(kRaw)%10
		rng := rand.New(rand.NewPCG(seed, 77))
		a := NewMatrix(n, n)
		if n > 0 {
			a = ipRandSPD(rng, n)
		}
		c, err := Chol(a)
		if err != nil {
			t.Fatal(err)
		}
		bs := make([]Vector, k)
		for j := range bs {
			bs[j] = Vector(ipRandMatrix(rng, 1, n).Data)
		}

		cols := make([]Vector, k)
		for j, b := range bs {
			cols[j] = b.Clone()
		}
		c.SolveColsTo(cols)
		for j, b := range bs {
			sameBits(t, "SolveColsTo", cols[j], c.SolveVecTo(NewVector(n), b))
		}

		fresh := make([]Vector, k)
		inPlace := make([]Vector, k)
		for j, b := range bs {
			fresh[j] = NewVector(n)
			for i := range fresh[j] {
				fresh[j][i] = math.NaN() // must be fully overwritten
			}
			inPlace[j] = b.Clone()
		}
		ForwardSolveRowsTo(fresh, c.L, bs)
		ForwardSolveRowsTo(inPlace, c.L, inPlace)
		for j, b := range bs {
			want := ForwardSolveTo(NewVector(n), c.L, b)
			sameBits(t, "ForwardSolveRowsTo", fresh[j], want)
			sameBits(t, "ForwardSolveRowsTo in place", inPlace[j], want)
		}

		inv := c.InverseTo(ipRandMatrix(rng, n, n)) // stale contents must not leak
		e := NewVector(n)
		for j := 0; j < n; j++ {
			clear(e)
			e[j] = 1
			c.SolveVecTo(e, e)
			col := NewVector(n)
			for i := range col {
				col[i] = inv.At(i, j)
			}
			sameBits(t, "InverseTo column", col, e)
		}
	})
}

// cholRowOracle is cholInto as it was before row blocking: one row of L at
// a time, each element's terms in ascending k.
func cholRowOracle(l, a *Matrix, jitter float64) error {
	n := a.Rows
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

// TestCholIntoBlockedMatchesRowOracle holds the four-row-blocked cholInto to
// the row-at-a-time loop: the same factor bits at every size across the
// block remainders, through CholJitterInto's whole jitter ladder on
// singular inputs, and the same bare ErrNotPositiveDefinite on a matrix no
// jitter rescues.
func TestCholIntoBlockedMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 3))
	for n := 0; n <= 13; n++ {
		for trial := 0; trial < 4; trial++ {
			a := NewMatrix(n, n)
			if n > 0 {
				a = ipRandSPD(rng, n)
			}
			if trial >= 2 && n > 2 { // duplicate a row/column: singular
				d := rng.IntN(n-1) + 1
				for j := 0; j < n; j++ {
					a.Set(d, j, a.At(0, j))
					a.Set(j, d, a.At(j, 0))
				}
				a.Set(d, d, a.At(0, 0))
			}
			scale := 1.0
			if n > 0 {
				scale = meanDiag(a)
			}
			for _, jitter := range []float64{0, 1e-10 * scale, 1e-8 * scale, 1e-6 * scale, 1e-4 * scale} {
				want := NewMatrix(n, n)
				wantErr := cholRowOracle(want, a, jitter)
				got := ipRandMatrix(rng, n, n) // stale contents must not leak
				gotErr := cholInto(got, a, jitter)
				if gotErr != wantErr {
					t.Fatalf("n=%d trial %d jitter %g: err %v, oracle %v", n, trial, jitter, gotErr, wantErr)
				}
				if wantErr == nil {
					sameBits(t, "cholInto", Vector(got.Data), Vector(want.Data))
				}
			}
			got := ipRandMatrix(rng, n, n)
			c, err := CholJitterInto(got, a)
			if err != nil {
				t.Fatalf("n=%d trial %d: CholJitterInto: %v", n, trial, err)
			}
			want := NewMatrix(n, n)
			if err := cholRowOracle(want, a, c.Jitter); err != nil {
				t.Fatalf("n=%d trial %d: oracle fails at the chosen jitter %g", n, trial, c.Jitter)
			}
			sameBits(t, "CholJitterInto", Vector(got.Data), Vector(want.Data))
		}
	}

	// Indefinite in the second block (pivot 5 is negative): both loops fail
	// there, and no jitter rescues it.
	const n = 9
	a := ipRandSPD(rng, n)
	a.Set(5, 5, -10*a.At(5, 5))
	if err := cholRowOracle(NewMatrix(n, n), a, 0); err != ErrNotPositiveDefinite {
		t.Fatalf("oracle accepted an indefinite matrix: %v", err)
	}
	if err := cholInto(NewMatrix(n, n), a, 0); err != ErrNotPositiveDefinite {
		t.Fatalf("cholInto on an indefinite matrix: %v, want the bare ErrNotPositiveDefinite", err)
	}
	if _, err := CholJitterInto(NewMatrix(n, n), a); err != ErrNotPositiveDefinite {
		t.Fatalf("CholJitterInto on an indefinite matrix: %v, want the bare ErrNotPositiveDefinite", err)
	}
}
