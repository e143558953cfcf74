package optim

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}
	r := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(r.X[0]-3) > 1e-4 || math.Abs(r.X[1]+1) > 1e-4 {
		t.Fatalf("minimizer = %v", r.X)
	}
	if math.Abs(r.F-5) > 1e-7 {
		t.Fatalf("minimum = %v", r.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	r := MultiStartNelderMead(f, []float64{-1.2, 1}, 5, 1.0, stats.NewRNG(1), NelderMeadOptions{MaxIters: 5000})
	if math.Abs(r.X[0]-1) > 1e-3 || math.Abs(r.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimizer = %v (f=%v)", r.X, r.F)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x []float64) float64 { return math.Abs(x[0] - 7) }
	r := NelderMead(f, []float64{0}, NelderMeadOptions{})
	if math.Abs(r.X[0]-7) > 1e-4 {
		t.Fatalf("1D minimizer = %v", r.X)
	}
}

func TestMultiStartSkipsNaNStarts(t *testing.T) {
	// f is NaN outside [0,10]² so random starts may be skipped; the x0
	// start is valid and must be used.
	f := func(x []float64) float64 {
		if x[0] < 0 || x[0] > 10 || x[1] < 0 || x[1] > 10 {
			return math.NaN()
		}
		return (x[0]-5)*(x[0]-5) + (x[1]-5)*(x[1]-5)
	}
	r := MultiStartNelderMead(f, []float64{5.5, 5.5}, 8, 100, stats.NewRNG(2), NelderMeadOptions{})
	if math.IsInf(r.F, 1) {
		t.Fatal("all starts skipped despite valid x0")
	}
	if math.Abs(r.X[0]-5) > 1e-2 || math.Abs(r.X[1]-5) > 1e-2 {
		t.Fatalf("minimizer = %v", r.X)
	}
}
