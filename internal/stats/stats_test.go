package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNormPDF(t *testing.T) {
	if got := NormPDF(0); math.Abs(got-0.3989422804014327) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v", got)
	}
	if got := NormPDF(1); math.Abs(got-0.24197072451914337) > 1e-15 {
		t.Fatalf("NormPDF(1) = %v", got)
	}
}

func TestNormCDF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormLogCDFContinuity(t *testing.T) {
	// The asymptotic branch must agree with the direct branch near the
	// switch point z = -8.
	for _, z := range []float64{-7.9, -7.99, -8.01, -8.5, -10, -20, -35} {
		direct := math.Log(0.5 * math.Erfc(-z*invSqrt2))
		got := NormLogCDF(z)
		if z > -36 && !math.IsInf(direct, -1) {
			if math.Abs(got-direct) > 1e-6*math.Abs(direct) {
				t.Errorf("NormLogCDF(%v) = %v, direct = %v", z, got, direct)
			}
		}
	}
	// Far tail must stay finite where naive log underflows to -Inf.
	if got := NormLogCDF(-50); math.IsInf(got, -1) || math.IsNaN(got) {
		t.Fatalf("NormLogCDF(-50) = %v", got)
	}
}

func TestInvMills(t *testing.T) {
	// Direct region.
	if got, want := InvMills(0), NormPDF(0)/0.5; math.Abs(got-want) > 1e-14 {
		t.Fatalf("InvMills(0) = %v, want %v", got, want)
	}
	// Continuity at the branch switch.
	for _, z := range []float64{-7.9, -8.1} {
		direct := NormPDF(z) / NormCDF(z)
		if math.Abs(InvMills(z)-direct) > 1e-4*direct {
			t.Errorf("InvMills(%v) = %v, direct %v", z, InvMills(z), direct)
		}
	}
	// Asymptotic behaviour: InvMills(z) ≈ -z for z ≪ 0 and stays finite.
	for _, z := range []float64{-20, -100, -1000} {
		got := InvMills(z)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("InvMills(%v) = %v", z, got)
		}
		if got < -z || got > -z*1.02 {
			t.Errorf("InvMills(%v) = %v, want slightly above %v", z, got, -z)
		}
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6} {
		z := NormQuantile(p)
		if got := NormCDF(z); math.Abs(got-p) > 1e-10 {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile endpoints wrong")
	}
	if !math.IsNaN(NormQuantile(-0.5)) || !math.IsNaN(NormQuantile(1.5)) {
		t.Error("NormQuantile out-of-range should be NaN")
	}
}

func TestEMaxGaussianPair(t *testing.T) {
	// Degenerate: same variable → max is the variable's mean.
	if got := EMaxGaussianPair(2, 2, 1, 1, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("degenerate EMax = %v", got)
	}
	// Independent standard normals: E[max] = 1/√π.
	want := 1 / math.Sqrt(math.Pi)
	if got := EMaxGaussianPair(0, 0, 1, 1, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EMax std = %v, want %v", got, want)
	}
	// Dominant mean: E[max] ≈ larger mean when separation is huge.
	if got := EMaxGaussianPair(100, 0, 1, 1, 0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("EMax dominant = %v", got)
	}
	// Monte-Carlo cross-check on a correlated pair.
	rng := NewRNG(42)
	mu1, mu2, s1, s2, rho := 0.3, -0.2, 1.5, 0.7, 0.6
	c12 := rho * s1 * s2
	var sum float64
	const n = 400000
	for i := 0; i < n; i++ {
		z1 := rng.NormFloat64()
		z2 := rho*z1 + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		a := mu1 + s1*z1
		b := mu2 + s2*z2
		sum += math.Max(a, b)
	}
	mc := sum / n
	got := EMaxGaussianPair(mu1, mu2, s1, s2, c12)
	if math.Abs(got-mc) > 0.01 {
		t.Fatalf("EMax analytic %v vs MC %v", got, mc)
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := NewRNG(9)
	n, d := 20, 3
	pts := LatinHypercube(n, d, rng)
	for j := 0; j < d; j++ {
		hit := make([]bool, n)
		for _, p := range pts {
			k := int(p[j] * float64(n))
			if k < 0 || k >= n || hit[k] {
				t.Fatalf("dim %d stratum %d violated", j, k)
			}
			hit[k] = true
		}
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 1.25 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if math.Abs(Std(xs)-math.Sqrt(1.25)) > 1e-15 {
		t.Errorf("Std = %v", Std(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice conventions violated")
	}
}

func TestR2(t *testing.T) {
	obs := []float64{1, 2, 3}
	if got := R2(obs, obs); got != 1 {
		t.Errorf("perfect R2 = %v", got)
	}
	mean := []float64{2, 2, 2}
	if got := R2(obs, mean); got != 0 {
		t.Errorf("mean-predictor R2 = %v", got)
	}
	if got := R2([]float64{5, 5}, []float64{5, 5}); got != 1 {
		t.Errorf("constant obs perfect R2 = %v", got)
	}
	if got := R2([]float64{5, 5}, []float64{4, 6}); got != 0 {
		t.Errorf("constant obs imperfect R2 = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	sort.Float64s(xs)
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

// Property: NormCDF is monotone and maps to (0,1).
func TestNormCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Bound inputs to a sane range to avoid denormal noise.
		a = math.Mod(a, 40)
		b = math.Mod(b, 40)
		lo, hi := math.Min(a, b), math.Max(a, b)
		ca, cb := NormCDF(lo), NormCDF(hi)
		return ca <= cb && ca >= 0 && cb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
