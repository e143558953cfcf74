package gp

import (
	"math"
	"testing"

	"repro/internal/kernel"
)

// regs adapts a slice of exact GPs to the Hyperparams slice PoolHyperparams
// takes, mapping nil pointers to nil interface values.
func regs(gs ...*GP) []Hyperparams {
	out := make([]Hyperparams, len(gs))
	for i, g := range gs {
		if g != nil {
			out[i] = g
		}
	}
	return out
}

func TestPoolHyperparamsMeans(t *testing.T) {
	mk := func(variance, ls, noise float64) *GP {
		k := kernel.NewMatern52(1)
		k.SetLogParams([]float64{math.Log(variance), math.Log(ls)})
		return New(k, noise)
	}
	donors := regs(mk(1, 0.1, 1e-4), mk(4, 0.4, 1e-2))
	lp, noise, ok := PoolHyperparams(donors)
	if !ok {
		t.Fatal("pooling failed")
	}
	// Log-space mean = geometric mean on the natural scale.
	if got, want := math.Exp(lp[0]), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("pooled variance = %v, want %v", got, want)
	}
	if got, want := math.Exp(lp[1]), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("pooled lengthscale = %v, want %v", got, want)
	}
	if want := 1e-3; math.Abs(noise-want) > 1e-12 {
		t.Errorf("pooled noise = %v, want %v", noise, want)
	}
}

func TestPoolHyperparamsRejects(t *testing.T) {
	if _, _, ok := PoolHyperparams(nil); ok {
		t.Error("empty donor set pooled")
	}
	if _, _, ok := PoolHyperparams(regs(nil)); ok {
		t.Error("nil donor pooled")
	}
	mixed := regs(New(kernel.NewRBF(1), 1e-3), New(kernel.NewRBF(2), 1e-3))
	if _, _, ok := PoolHyperparams(mixed); ok {
		t.Error("mismatched kernel dimensions pooled")
	}
}

func TestPoolHyperparamsNoiseFloor(t *testing.T) {
	// A jitter-free donor must not drive the geometric mean to zero.
	donors := regs(New(kernel.NewRBF(1), 0), New(kernel.NewRBF(1), 1e-3))
	_, noise, ok := PoolHyperparams(donors)
	if !ok || noise <= 0 {
		t.Fatalf("pooling with zero-noise donor: noise=%v ok=%v", noise, ok)
	}
}

// TestWarmStartBeatsColdFewShot is the differential test for the warm-start
// path: on a fast-varying target with only a handful of observations, a GP
// whose hyperparameters are pooled from donors that learned related tasks
// must out-predict a cold GP left at kernel defaults. The donors' tuned
// lengthscales (≈0.15) match the target's variation; the cold default (1.0)
// oversmooths it.
func TestWarmStartBeatsColdFewShot(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(14 * x) }
	mkDonor := func(ls float64) *GP {
		k := kernel.NewMatern52(1)
		k.SetLogParams([]float64{math.Log(1.0), math.Log(ls)})
		return New(k, 1e-4)
	}
	donors := regs(mkDonor(0.12), mkDonor(0.18), mkDonor(0.15))
	lp, noise, ok := PoolHyperparams(donors)
	if !ok {
		t.Fatal("pooling failed")
	}

	var xs [][]float64
	var ys []float64
	for i := 0; i < 8; i++ {
		x := float64(i) / 7
		xs = append(xs, []float64{x})
		ys = append(ys, f(x))
	}

	warm := New(kernel.NewMatern52(1), noise)
	warm.Kern.SetLogParams(lp)
	if err := warm.Fit(xs, ys); err != nil {
		t.Fatalf("warm fit: %v", err)
	}
	cold := New(kernel.NewMatern52(1), 1e-4)
	if err := cold.Fit(xs, ys); err != nil {
		t.Fatalf("cold fit: %v", err)
	}

	rmse := func(g *GP) float64 {
		var s float64
		n := 0
		for x := 0.0; x <= 1.0; x += 0.01 {
			d := g.PredictMean([]float64{x}) - f(x)
			s += d * d
			n++
		}
		return math.Sqrt(s / float64(n))
	}
	w, c := rmse(warm), rmse(cold)
	if !(w < c) {
		t.Fatalf("warm RMSE %v not better than cold %v", w, c)
	}
}
