package gp

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

func fitted1D(t *testing.T, n int, noise float64, seed uint64) *GP {
	t.Helper()
	rng := stats.NewRNG(seed)
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := rng.Float64() * 4
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(2*x)+noise*rng.NormFloat64())
	}
	g := New(kernel.NewMatern52(1), noise*noise+1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLeaveOneOutAgainstManualRefit(t *testing.T) {
	// The closed form must match actually removing each point and
	// refitting (up to numerical tolerance).
	g := fitted1D(t, 12, 0.05, 3)
	mu, variance := g.LeaveOneOut()
	for drop := 0; drop < g.N(); drop += 4 {
		var xs [][]float64
		var ys []float64
		for i := 0; i < g.N(); i++ {
			if i == drop {
				continue
			}
			xs = append(xs, g.X()[i])
			ys = append(ys, g.Y()[i])
		}
		h := New(g.Kern.Clone(), g.NoiseVar)
		if err := h.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		m, v := h.Predict(g.X()[drop])
		v += h.NoiseVar // LOO variance is predictive for the observation
		// The constant-mean estimate differs slightly between the full
		// and reduced fits, so allow a modest tolerance.
		if math.Abs(m-mu[drop]) > 0.05 {
			t.Errorf("LOO mean[%d] = %v, refit %v", drop, mu[drop], m)
		}
		if math.Abs(v-variance[drop]) > 0.05 {
			t.Errorf("LOO var[%d] = %v, refit %v", drop, variance[drop], v)
		}
	}
}

func TestLOOLogLikelihoodPrefersDecentNoise(t *testing.T) {
	rng := stats.NewRNG(7)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		x := rng.Float64() * 4
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(2*x)+0.05*rng.NormFloat64())
	}
	score := func(noiseVar float64) float64 {
		g := New(kernel.NewMatern52(1), noiseVar)
		if err := g.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		return g.LOOLogLikelihood()
	}
	good := score(0.05 * 0.05)
	tooBig := score(4.0)
	if good <= tooBig {
		t.Fatalf("LOO-LL did not prefer the true noise: %v vs %v", good, tooBig)
	}
}

func TestStandardizedResidualsRoughlyUnitScale(t *testing.T) {
	g := fitted1D(t, 60, 0.1, 11)
	res := g.StandardizedLOOResiduals()
	var mean, varr float64
	for _, r := range res {
		mean += r
	}
	mean /= float64(len(res))
	for _, r := range res {
		varr += (r - mean) * (r - mean)
	}
	varr /= float64(len(res))
	if math.Abs(mean) > 0.5 || varr < 0.2 || varr > 5 {
		t.Fatalf("standardized residuals off: mean %v var %v", mean, varr)
	}
}

func TestLeaveOneOutUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(kernel.NewRBF(1), 1e-4).LeaveOneOut()
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// StandardizedLOOResiduals returns (yᵢ − μᵢ)/σᵢ for every training point;
// under a well-specified model these are approximately standard normal.
func (g *GP) StandardizedLOOResiduals() mat.Vector {
	mu, variance := g.LeaveOneOut()
	y := g.Y()
	out := mat.NewVector(len(mu))
	for i := range mu {
		out[i] = (y[i] - mu[i]) / math.Sqrt(variance[i])
	}
	return out
}
