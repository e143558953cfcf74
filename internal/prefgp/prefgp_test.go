package prefgp

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

// trueUtility is a hidden ground-truth utility used by tests: a weighted
// negative L1 distance to the utopia point (like the paper's Eq. 13).
func trueUtility(y []float64) float64 {
	w := []float64{1, 2, 0.5}
	var s float64
	for i, v := range y {
		s -= w[i] * math.Abs(v-1)
	}
	return s
}

func buildModel(t testing.TB, nPairs int, seed uint64) (*Model, [][]float64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	m := NewModel(kernel.NewRBF(3), 0.05)
	var pts [][]float64
	for i := 0; i < 2*nPairs; i++ {
		y := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pts = append(pts, y)
		m.AddPoint(y)
	}
	for v := 0; v < nPairs; v++ {
		a, b := 2*v, 2*v+1
		if trueUtility(pts[a]) >= trueUtility(pts[b]) {
			if err := m.AddComparison(a, b); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.AddComparison(b, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	return m, pts
}

func TestAddPointDedup(t *testing.T) {
	m := NewModel(kernel.NewRBF(2), 0.1)
	i := m.AddPoint([]float64{0.5, 0.5})
	j := m.AddPoint([]float64{0.5, 0.5})
	k := m.AddPoint([]float64{0.5, 0.6})
	if i != j || k == i {
		t.Fatalf("dedup wrong: %d %d %d", i, j, k)
	}
	if m.NumPoints() != 2 {
		t.Fatalf("NumPoints = %d", m.NumPoints())
	}
}

func TestAddComparisonValidation(t *testing.T) {
	m := NewModel(kernel.NewRBF(1), 0.1)
	a := m.AddPoint([]float64{0})
	if err := m.AddComparison(a, a); err == nil {
		t.Error("self-comparison should fail")
	}
	if err := m.AddComparison(a, 5); err == nil {
		t.Error("out-of-range should fail")
	}
}

func TestFitRequiresData(t *testing.T) {
	m := NewModel(kernel.NewRBF(1), 0.1)
	if err := m.Fit(); err == nil {
		t.Error("empty fit should fail")
	}
	m.AddPoint([]float64{0})
	if err := m.Fit(); err == nil {
		t.Error("fit without comparisons should fail")
	}
}

func TestPredictUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(kernel.NewRBF(1), 0.1).PredictOne([]float64{0})
}

func TestLatentOrderingRespectsComparisons(t *testing.T) {
	// A transitive chain a ≻ b ≻ c must produce decreasing latent means.
	m := NewModel(kernel.NewRBF(1), 0.1)
	a := m.AddPoint([]float64{0.9})
	b := m.AddPoint([]float64{0.5})
	c := m.AddPoint([]float64{0.1})
	for i := 0; i < 3; i++ { // repeated comparisons sharpen the posterior
		_ = m.AddComparison(a, b)
		_ = m.AddComparison(b, c)
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	ua, _ := m.PredictOne([]float64{0.9})
	ub, _ := m.PredictOne([]float64{0.5})
	uc, _ := m.PredictOne([]float64{0.1})
	if !(ua > ub && ub > uc) {
		t.Fatalf("latent ordering wrong: %v %v %v", ua, ub, uc)
	}
}

func TestProbPreferConsistency(t *testing.T) {
	m, _ := buildModel(t, 20, 1)
	y1 := []float64{0.9, 0.9, 0.9} // near utopia
	y2 := []float64{0.1, 0.1, 0.1}
	p := m.ProbPrefer(y1, y2)
	if p < 0.7 {
		t.Fatalf("ProbPrefer(best, worst) = %v, want > 0.7", p)
	}
	// Complementarity.
	if q := m.ProbPrefer(y2, y1); math.Abs(p+q-1) > 1e-9 {
		t.Fatalf("P(a≻b)+P(b≻a) = %v", p+q)
	}
}

func TestPairwiseAccuracyImprovesWithData(t *testing.T) {
	acc := func(nPairs int) float64 {
		m, _ := buildModel(t, nPairs, 7)
		rng := stats.NewRNG(99)
		correct, total := 0, 0
		for i := 0; i < 300; i++ {
			y1 := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			y2 := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			mu1, _ := m.PredictOne(y1)
			mu2, _ := m.PredictOne(y2)
			if (mu1 > mu2) == (trueUtility(y1) > trueUtility(y2)) {
				correct++
			}
			total++
		}
		return float64(correct) / float64(total)
	}
	small := acc(3)
	large := acc(30)
	if large < 0.85 {
		t.Fatalf("accuracy with 30 pairs = %v, want > 0.85", large)
	}
	if large < small-0.05 {
		t.Fatalf("accuracy did not improve: 3 pairs %v, 30 pairs %v", small, large)
	}
}

func TestPosteriorVarianceShrinksNearData(t *testing.T) {
	m, pts := buildModel(t, 15, 3)
	_, vNear := m.PredictOne(pts[0])
	_, vFar := m.PredictOne([]float64{-3, -3, -3})
	if vNear >= vFar {
		t.Fatalf("variance near data %v >= far %v", vNear, vFar)
	}
}

func TestSampleShapesAndSpread(t *testing.T) {
	m, _ := buildModel(t, 10, 5)
	rng := stats.NewRNG(11)
	qs := [][]float64{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}}
	samples := m.Sample(qs, 500, rng)
	if len(samples) != 500 || len(samples[0]) != 2 {
		t.Fatalf("sample shape %dx%d", len(samples), len(samples[0]))
	}
	mu, cov := m.Predict(qs)
	col := make([]float64, len(samples))
	for i, s := range samples {
		col[i] = s[0]
	}
	if math.Abs(stats.Mean(col)-mu[0]) > 0.15 {
		t.Fatalf("sample mean %v vs posterior %v", stats.Mean(col), mu[0])
	}
	if cov.At(0, 0) > 1e-9 && stats.Variance(col) < cov.At(0, 0)/10 {
		t.Fatalf("sample variance %v vs posterior %v", stats.Variance(col), cov.At(0, 0))
	}
}

func TestPredictBatchMatchesPredictOne(t *testing.T) {
	m, _ := buildModel(t, 12, 61)
	qs := [][]float64{{0.2, 0.4, 0.6}, {0.9, 0.1, 0.5}, {0.5, 0.5, 0.5}}
	mu, cov := m.Predict(qs)
	for i, q := range qs {
		m1, v1 := m.PredictOne(q)
		if math.Abs(mu[i]-m1) > 1e-9 {
			t.Fatalf("batch mean[%d] = %v, single = %v", i, mu[i], m1)
		}
		vd := cov.At(i, i)
		if vd < 0 {
			vd = 0
		}
		if math.Abs(vd-v1) > 1e-9 {
			t.Fatalf("batch var[%d] = %v, single = %v", i, vd, v1)
		}
	}
	if d := cov.SymmetricMaxAbsOffDiag(); d > 1e-9 {
		t.Fatalf("posterior covariance asymmetry %v", d)
	}
}

func TestLogEvidenceFiniteAndDataSensitive(t *testing.T) {
	small, _ := buildModel(t, 4, 31)
	large, _ := buildModel(t, 20, 31)
	es, el := small.LogEvidence(), large.LogEvidence()
	if math.IsNaN(es) || math.IsInf(es, 0) || math.IsNaN(el) || math.IsInf(el, 0) {
		t.Fatalf("evidence not finite: %v %v", es, el)
	}
	// More comparisons = more likelihood terms = lower total evidence.
	if el >= es {
		t.Fatalf("evidence did not decrease with more data: %v -> %v", es, el)
	}
}

func TestLogEvidenceUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(kernel.NewRBF(2), 0.1).LogEvidence()
}

func TestOptimizeHyperparamsImprovesEvidence(t *testing.T) {
	m, _ := buildModel(t, 15, 41)
	before := m.LogEvidence()
	if err := m.OptimizeHyperparams(2, stats.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	after := m.LogEvidence()
	if after < before-1e-6 {
		t.Fatalf("evidence degraded: %v -> %v", before, after)
	}
	if err := NewModel(kernel.NewRBF(3), 0.1).OptimizeHyperparams(1, stats.NewRNG(1)); err == nil {
		t.Fatal("optimize before Fit should fail")
	}
}

func BenchmarkPrefFit20Pairs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildModel(b, 20, 42)
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// NumPoints returns the number of registered outcome vectors.
func (m *Model) NumPoints() int { return len(m.points) }

// LogEvidence returns the Laplace approximation of the log marginal
// likelihood of the comparison data under the current hyperparameters.
// Valid after Fit.
func (m *Model) LogEvidence() float64 {
	if m.ainv == nil {
		panic(ErrNotFitted)
	}
	return m.evidence
}

// Sample draws nSamples joint samples of the latent utility at ys. Only the
// returned rows are allocated; see SampleWith.
func (m *Model) Sample(ys [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	block := make([]float64, nSamples*len(ys))
	rows := make([][]float64, nSamples)
	for s := range rows {
		rows[s] = block[s*len(ys) : (s+1)*len(ys) : (s+1)*len(ys)]
	}
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	m.SampleWith(ws, ys, rows, rng)
	return rows
}

// ProbPrefer returns the posterior predictive probability that y1 ≻ y2,
// integrating the probit likelihood over the joint posterior of
// (g(y1), g(y2)).
func (m *Model) ProbPrefer(y1, y2 []float64) float64 {
	mu, cov := m.Predict([][]float64{y1, y2})
	dmu := mu[0] - mu[1]
	dvar := cov.At(0, 0) + cov.At(1, 1) - 2*cov.At(0, 1)
	if dvar < 0 {
		dvar = 0
	}
	den := math.Sqrt(2*m.Lambda*m.Lambda + dvar)
	return stats.NormCDF(dmu / den)
}
