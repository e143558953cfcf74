package kernel

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func kernels(dim int) map[string]Kernel {
	return map[string]Kernel{
		"rbf":      NewRBF(dim),
		"matern52": NewMatern52(dim),
	}
}

func TestKernelBasicProperties(t *testing.T) {
	x := []float64{0.3, -1.2}
	y := []float64{1.0, 0.5}
	for name, k := range kernels(2) {
		// k(x,x) = variance.
		if got := k.Eval(x, x); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: k(x,x) = %v, want 1", name, got)
		}
		// Symmetry.
		if k.Eval(x, y) != k.Eval(y, x) {
			t.Errorf("%s: asymmetric", name)
		}
		// Bounded by variance.
		if v := k.Eval(x, y); v <= 0 || v >= 1 {
			t.Errorf("%s: k(x,y) = %v out of (0, variance)", name, v)
		}
		if k.Dim() != 2 {
			t.Errorf("%s: Dim = %d", name, k.Dim())
		}
	}
}

func TestRBFKnownValue(t *testing.T) {
	k := NewRBF(1)
	// r² = 1, k = exp(-0.5).
	if got := k.Eval([]float64{0}, []float64{1}); math.Abs(got-math.Exp(-0.5)) > 1e-15 {
		t.Fatalf("RBF = %v", got)
	}
}

func TestMatern52KnownValue(t *testing.T) {
	k := NewMatern52(1)
	r := 2.0
	want := (1 + math.Sqrt(5)*r + 5*r*r/3) * math.Exp(-math.Sqrt(5)*r)
	if got := k.Eval([]float64{0}, []float64{2}); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Matern52 = %v, want %v", got, want)
	}
}

func TestLogParamsRoundTrip(t *testing.T) {
	for name, k := range kernels(3) {
		p := k.LogParams()
		if len(p) != 4 {
			t.Fatalf("%s: LogParams len %d", name, len(p))
		}
		k.SetLogParams([]float64{math.Log(2.5), math.Log(0.5), math.Log(1.5), math.Log(3)})
		p2 := k.LogParams()
		want := []float64{math.Log(2.5), math.Log(0.5), math.Log(1.5), math.Log(3)}
		for i := range want {
			if math.Abs(p2[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: param %d = %v, want %v", name, i, p2[i], want[i])
			}
		}
		if got := k.Eval([]float64{0, 0, 0}, []float64{0, 0, 0}); math.Abs(got-2.5) > 1e-12 {
			t.Fatalf("%s: variance not applied: %v", name, got)
		}
	}
}

func TestSetLogParamsWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRBF(2).SetLogParams([]float64{0})
}

func TestCloneIndependence(t *testing.T) {
	k := NewMatern52(2)
	c := k.Clone()
	k.SetLogParams([]float64{math.Log(9), 0, 0})
	if got := c.Eval([]float64{0, 0}, []float64{0, 0}); got != 1 {
		t.Fatalf("clone affected by parent mutation: %v", got)
	}
}

func TestARDLengthscales(t *testing.T) {
	k := NewRBF(2)
	k.SetLogParams([]float64{0, math.Log(0.1), math.Log(10)})
	// Moving along the short-lengthscale axis decays much faster.
	short := k.Eval([]float64{0, 0}, []float64{1, 0})
	long := k.Eval([]float64{0, 0}, []float64{0, 1})
	if short >= long {
		t.Fatalf("ARD ignored: short-axis %v >= long-axis %v", short, long)
	}
}

// Property: the Gram matrix of random points is positive semi-definite
// (verified via jittered Cholesky).
func TestGramPSDProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n, d := 2+int(seed%8), 1+int(seed%3)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.NormFloat64() * 2
			}
		}
		for _, k := range kernels(d) {
			g := mat.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					g.Set(i, j, k.Eval(pts[i], pts[j]))
				}
			}
			if _, err := mat.CholJitter(g); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelDecayOrdering(t *testing.T) {
	// At the same distance, the rougher kernel (smaller ν) decays faster:
	// matern52 < rbf for moderate r.
	x, y := []float64{0}, []float64{1.0}
	v52 := NewMatern52(1).Eval(x, y)
	vrb := NewRBF(1).Eval(x, y)
	if !(v52 < vrb) {
		t.Fatalf("decay ordering violated: %v %v", v52, vrb)
	}
}
