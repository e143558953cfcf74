package acq

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/prefgp"
	"repro/internal/stats"
)

// gaussSampler is an analytic test sampler: independent Gaussian benefit at
// each point with mean = -(x[0]-2)² and std sigma.
type gaussSampler struct{ sigma float64 }

func (g gaussSampler) meanAt(p []float64) float64 { d := p[0] - 2; return -d * d }

func (g gaussSampler) SampleBenefit(points [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, nSamples)
	for s := range out {
		row := make([]float64, len(points))
		for i, p := range points {
			row[i] = g.meanAt(p) + g.sigma*rng.NormFloat64()
		}
		out[s] = row
	}
	return out
}

func TestQNEIPrefersImprovingCandidates(t *testing.T) {
	s := gaussSampler{sigma: 0.05}
	rng := stats.NewRNG(1)
	obs := [][]float64{{0}, {0.5}} // benefit -4, -2.25
	good := [][]float64{{2}}       // benefit 0 — big improvement
	bad := [][]float64{{-1}}       // benefit -9 — no improvement
	vGood := QNEI(s, good, obs, 4000, rng)
	vBad := QNEI(s, bad, obs, 4000, rng)
	if vGood < 1.5 {
		t.Fatalf("qNEI(good) = %v, want ≈ 2.25", vGood)
	}
	if vBad > 0.01 {
		t.Fatalf("qNEI(bad) = %v, want ≈ 0", vBad)
	}
}

func TestQNEIBatchAtLeastSingle(t *testing.T) {
	s := gaussSampler{sigma: 0.3}
	obs := [][]float64{{1}}
	single := QNEI(s, [][]float64{{1.8}}, obs, 6000, stats.NewRNG(2))
	batch := QNEI(s, [][]float64{{1.8}, {2.2}}, obs, 6000, stats.NewRNG(2))
	if batch+0.02 < single {
		t.Fatalf("batch qNEI %v < single qNEI %v", batch, single)
	}
}

func TestQNEIEmptyObsFallsBackToQSR(t *testing.T) {
	s := gaussSampler{sigma: 0.01}
	rng := stats.NewRNG(3)
	cand := [][]float64{{2}}
	v := QNEI(s, cand, nil, 2000, rng)
	if math.Abs(v-0) > 0.01 { // mean benefit at x=2 is 0
		t.Fatalf("qNEI no-obs = %v", v)
	}
}

func TestQNEIEmptyCand(t *testing.T) {
	s := gaussSampler{sigma: 0.1}
	if v := QNEI(s, nil, [][]float64{{0}}, 100, stats.NewRNG(4)); v != 0 {
		t.Fatalf("empty cand qNEI = %v", v)
	}
}

func TestQEIAgainstClosedForm(t *testing.T) {
	// Single candidate, Gaussian N(mu, s²), incumbent best: EI has the
	// closed form s·(u·Φ(u) + φ(u)), u = (mu-best)/s.
	sampler := gaussSampler{sigma: 0.7}
	best := -1.0
	mu := sampler.meanAt([]float64{1.5}) // -0.25
	u := (mu - best) / 0.7
	want := 0.7 * (u*stats.NormCDF(u) + stats.NormPDF(u))
	got := QEI(sampler, [][]float64{{1.5}}, best, 200000, stats.NewRNG(5))
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("qEI = %v, closed form %v", got, want)
	}
}

// analyticEI is the closed-form expected improvement of a single Gaussian
// candidate N(mu, sigma²) over a fixed incumbent:
//
//	EI = σ·(u·Φ(u) + φ(u)),  u = (μ − best)/σ.
//
// It is the q=1, noise-free special case the Monte-Carlo batch
// acquisitions generalize, and TestAnalyticEI holds MC-qEI to it.
func analyticEI(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		return math.Max(0, mu-best)
	}
	u := (mu - best) / sigma
	return sigma * (u*stats.NormCDF(u) + stats.NormPDF(u))
}

func TestAnalyticEI(t *testing.T) {
	// Degenerate σ: improvement is deterministic.
	if got := analyticEI(2, 0, 1); got != 1 {
		t.Fatalf("deterministic EI = %v", got)
	}
	if got := analyticEI(0, 0, 1); got != 0 {
		t.Fatalf("deterministic no-improvement EI = %v", got)
	}
	// Far-below candidates have ~0 EI; far-above ≈ mu − best.
	if got := analyticEI(-10, 1, 0); got > 1e-6 {
		t.Fatalf("hopeless EI = %v", got)
	}
	if got := analyticEI(10, 1, 0); math.Abs(got-10) > 1e-6 {
		t.Fatalf("sure-thing EI = %v", got)
	}
	// Monotone in mu.
	if analyticEI(0.5, 1, 0) <= analyticEI(-0.5, 1, 0) {
		t.Fatal("EI not monotone in mean")
	}
	// MC agreement (same setup as TestQEIAgainstClosedForm).
	sampler := gaussSampler{sigma: 0.7}
	mu := sampler.meanAt([]float64{1.5})
	want := analyticEI(mu, 0.7, -1)
	got := QEI(sampler, [][]float64{{1.5}}, -1, 200000, stats.NewRNG(55))
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("qEI %v vs analytic %v", got, want)
	}
}

func TestQSRMatchesMeanOfMax(t *testing.T) {
	sampler := gaussSampler{sigma: 0.0001}
	got := QSR(sampler, [][]float64{{0}, {2}, {3}}, 500, stats.NewRNG(6))
	if math.Abs(got-0) > 0.01 { // max mean benefit is 0 at x=2
		t.Fatalf("qSR = %v", got)
	}
}

func TestQUCBIncreasesWithBeta(t *testing.T) {
	sampler := gaussSampler{sigma: 0.5}
	cand := [][]float64{{1.0}, {2.5}}
	lo := QUCB(sampler, cand, 0.1, 8000, stats.NewRNG(7))
	hi := QUCB(sampler, cand, 4.0, 8000, stats.NewRNG(7))
	if hi <= lo {
		t.Fatalf("qUCB not increasing in beta: %v vs %v", lo, hi)
	}
}

func TestQUCBEmptyCand(t *testing.T) {
	if v := QUCB(gaussSampler{}, nil, 1, 10, stats.NewRNG(8)); !math.IsInf(v, -1) {
		t.Fatalf("empty qUCB = %v", v)
	}
}

func buildPrefModel(t *testing.T) *prefgp.Model {
	t.Helper()
	m := prefgp.NewModel(kernel.NewRBF(2), 0.05)
	rng := stats.NewRNG(9)
	util := func(y []float64) float64 { return y[0] + 2*y[1] }
	var pts [][]float64
	for i := 0; i < 20; i++ {
		y := []float64{rng.Float64(), rng.Float64()}
		pts = append(pts, y)
		m.AddPoint(y)
	}
	for v := 0; v < 10; v++ {
		a, b := 2*v, 2*v+1
		if util(pts[a]) >= util(pts[b]) {
			_ = m.AddComparison(a, b)
		} else {
			_ = m.AddComparison(b, a)
		}
	}
	if err := m.Fit(); err != nil {
		t.Fatal(err)
	}
	return m
}

// eubo is the pairwise EUBO the batched scan replaced, kept as its
// oracle: E[max(g(y1), g(y2))] in closed form from a two-point posterior
// predicted on its own.
func eubo(m *prefgp.Model, y1, y2 []float64) float64 {
	mu, cov := m.Predict([][]float64{y1, y2})
	s1 := math.Sqrt(math.Max(cov.At(0, 0), 0))
	s2 := math.Sqrt(math.Max(cov.At(1, 1), 0))
	return stats.EMaxGaussianPair(mu[0], mu[1], s1, s2, cov.At(0, 1))
}

// selectPairwise is the pairwise scan SelectEUBOPairExcept must reproduce:
// one two-point posterior per remaining pair, strict > in (i, j) order
// from -Inf.
func selectPairwise(m *prefgp.Model, pts [][]float64, skip func(i, j int) bool) (int, int, float64) {
	bestI, bestJ, best := -1, -1, math.Inf(-1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if skip != nil && skip(i, j) {
				continue
			}
			if v := eubo(m, pts[i], pts[j]); v > best {
				best, bestI, bestJ = v, i, j
			}
		}
	}
	return bestI, bestJ, best
}

func TestEUBOBasicProperties(t *testing.T) {
	m := buildPrefModel(t)
	y1 := []float64{0.9, 0.9}
	y2 := []float64{0.1, 0.1}
	e := eubo(m, y1, y2)
	mu1, _ := m.PredictOne(y1)
	mu2, _ := m.PredictOne(y2)
	// E[max] is at least the max of the means.
	if e < math.Max(mu1, mu2)-1e-9 {
		t.Fatalf("EUBO %v < max mean %v", e, math.Max(mu1, mu2))
	}
	// Symmetry.
	if e2 := eubo(m, y2, y1); math.Abs(e-e2) > 1e-6 {
		t.Fatalf("EUBO asymmetric: %v vs %v", e, e2)
	}
}

func TestSelectEUBOPair(t *testing.T) {
	m := buildPrefModel(t)
	cands := [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.95, 0.95}, {0.9, 0.1}}
	i, j, v := SelectEUBOPair(m, cands)
	if i < 0 || j <= i || j >= len(cands) {
		t.Fatalf("invalid pair (%d, %d)", i, j)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("EUBO value %v", v)
	}
	// The returned pair must actually achieve the max over all pairs.
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			if e := eubo(m, cands[a], cands[b]); e > v+1e-12 {
				t.Fatalf("pair (%d,%d) EUBO %v beats returned %v", a, b, e, v)
			}
		}
	}
}

// TestSelectEUBOPairExceptSkipsAndExhausts pins the skip contract: skipped
// pairs never win, and no pair comes back only once every pair is skipped.
func TestSelectEUBOPairExceptSkipsAndExhausts(t *testing.T) {
	m := buildPrefModel(t)
	cands := [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.95, 0.95}, {0.9, 0.1}}
	asked := map[[2]int]bool{}
	for n := 0; n < 6; n++ {
		i, j, v := SelectEUBOPairExcept(m, cands, func(i, j int) bool { return asked[[2]int{i, j}] })
		if i < 0 || asked[[2]int{i, j}] {
			t.Fatalf("round %d: got (%d, %d) with %d of 6 pairs asked", n, i, j, len(asked))
		}
		wi, wj, wv := selectPairwise(m, cands, func(i, j int) bool { return asked[[2]int{i, j}] })
		if i != wi || j != wj || math.Float64bits(v) != math.Float64bits(wv) {
			t.Fatalf("round %d: batched (%d, %d, %v), pairwise (%d, %d, %v)", n, i, j, v, wi, wj, wv)
		}
		asked[[2]int{i, j}] = true
	}
	if i, j, v := SelectEUBOPairExcept(m, cands, func(int, int) bool { return true }); i != -1 || j != -1 || !math.IsInf(v, -1) {
		t.Fatalf("every pair asked: got (%d, %d, %v), want (-1, -1, -Inf)", i, j, v)
	}
}

func TestSelectEUBOPairTooFewCandidates(t *testing.T) {
	m := buildPrefModel(t)
	i, j, _ := SelectEUBOPair(m, [][]float64{{0.5, 0.5}})
	if i != -1 || j != -1 {
		t.Fatalf("expected (-1, -1), got (%d, %d)", i, j)
	}
}

// sharedBruteForce computes the batch acquisition over a fixed draw matrix
// directly from its definition, as a reference for the incremental scorer.
func sharedBruteForce(z [][]float64, batch []int, inc []float64) float64 {
	var acc float64
	for s, row := range z {
		best := math.Inf(-1)
		for _, c := range batch {
			if row[c] > best {
				best = row[c]
			}
		}
		v := best
		if inc != nil {
			v = math.Max(0, best-inc[s])
		}
		acc += v
	}
	return acc / float64(len(z))
}

func sharedTestSamples(nSamples, nPoints int) [][]float64 {
	rng := stats.NewRNG(101)
	z := make([][]float64, nSamples)
	for s := range z {
		row := make([]float64, nPoints)
		for i := range row {
			row[i] = 2*rng.Float64() - 1
		}
		z[s] = row
	}
	return z
}

func TestSharedScorerMatchesBruteForce(t *testing.T) {
	z := sharedTestSamples(64, 9)
	obsCols := []int{6, 7, 8}
	inc := make([]float64, len(z))
	for s, row := range z {
		inc[s] = math.Max(row[6], math.Max(row[7], row[8]))
	}
	qnei := NewSharedQNEI(z, obsCols)
	qsr := NewSharedQSR(z)
	qei := NewSharedQEI(z, 0.25)
	best := make([]float64, len(z))
	for i := range best {
		best[i] = 0.25
	}
	var batch []int
	for _, col := range []int{3, 0, 5} {
		// Score every candidate before committing, against brute force.
		for ci := 0; ci < 6; ci++ {
			trial := append(append([]int(nil), batch...), ci)
			if got, want := qnei.Score(ci), sharedBruteForce(z, trial, inc); math.Abs(got-want) > 1e-12 {
				t.Fatalf("qNEI batch %v + %d: %v vs %v", batch, ci, got, want)
			}
			if got, want := qsr.Score(ci), sharedBruteForce(z, trial, nil); math.Abs(got-want) > 1e-12 {
				t.Fatalf("qSR batch %v + %d: %v vs %v", batch, ci, got, want)
			}
			if got, want := qei.Score(ci), sharedBruteForce(z, trial, best); math.Abs(got-want) > 1e-12 {
				t.Fatalf("qEI batch %v + %d: %v vs %v", batch, ci, got, want)
			}
		}
		qnei.Add(col)
		qsr.Add(col)
		qei.Add(col)
		batch = append(batch, col)
	}
}

func TestSharedQUCBMatchesTransformedMax(t *testing.T) {
	z := sharedTestSamples(128, 5)
	const beta = 2.0
	sc := NewSharedQUCB(z, beta)
	// Reference: explicit transform then mean-of-max.
	q := len(z[0])
	mu := make([]float64, q)
	for _, row := range z {
		for i, v := range row {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(z))
	}
	scale := math.Sqrt(beta * math.Pi / 2)
	u := make([][]float64, len(z))
	for s, row := range z {
		ur := make([]float64, q)
		for i, v := range row {
			ur[i] = mu[i] + scale*math.Abs(v-mu[i])
		}
		u[s] = ur
	}
	sc.Add(1)
	for ci := 0; ci < q; ci++ {
		want := sharedBruteForce(u, []int{1, ci}, nil)
		if got := sc.Score(ci); math.Abs(got-want) > 1e-12 {
			t.Fatalf("qUCB col %d: %v vs %v", ci, got, want)
		}
	}
}

func TestSharedQNEIAgreesWithPerTrialQNEI(t *testing.T) {
	// On the same sampler, the shared-draw qNEI estimate of a batch must
	// agree with the per-trial estimate within Monte-Carlo error.
	s := gaussSampler{sigma: 0.3}
	cands := [][]float64{{0}, {1}, {1.8}, {2.2}, {3}}
	obs := [][]float64{{0.5}, {1.2}}
	const nSamples = 60000
	perTrial := QNEI(s, [][]float64{{1.8}, {3}}, obs, nSamples, stats.NewRNG(7))

	universe := append(append([][]float64(nil), cands...), obs...)
	z := s.SampleBenefit(universe, nSamples, stats.NewRNG(8))
	sc := NewSharedQNEI(z, []int{5, 6})
	sc.Add(2)             // candidate {1.8}
	shared := sc.Score(4) // batch {1.8, 3}
	if math.Abs(perTrial-shared) > 0.02 {
		t.Fatalf("per-trial qNEI %v vs shared %v", perTrial, shared)
	}
}

func TestSharedQNEINoObsDegeneratesToQSR(t *testing.T) {
	z := sharedTestSamples(32, 4)
	a := NewSharedQNEI(z, nil)
	b := NewSharedQSR(z)
	for ci := 0; ci < 4; ci++ {
		if a.Score(ci) != b.Score(ci) {
			t.Fatalf("col %d: %v vs %v", ci, a.Score(ci), b.Score(ci))
		}
	}
}

func TestSharedScorerNoSamples(t *testing.T) {
	sc := NewSharedQSR(nil)
	if v := sc.Score(0); !math.IsInf(v, -1) {
		t.Fatalf("empty-draws score = %v", v)
	}
}
