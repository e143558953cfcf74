package gp

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

func TestFitValidation(t *testing.T) {
	g := New(kernel.NewRBF(1), 1e-4)
	if err := g.Fit(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
	if err := g.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := g.Fit([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
}

func TestPredictUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(kernel.NewRBF(1), 1e-4).Predict([]float64{0})
}

func TestInterpolationAtTrainingPoints(t *testing.T) {
	// With tiny noise, the posterior mean at a training point is ~ the
	// target and the variance is ~ 0.
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{0, 1, 4, 9}
	g := New(kernel.NewRBF(1), 1e-8)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, v := g.Predict(x)
		if math.Abs(mu-ys[i]) > 1e-3 {
			t.Errorf("mean at training point %v = %v, want %v", x, mu, ys[i])
		}
		if v > 1e-3 {
			t.Errorf("variance at training point %v = %v", x, v)
		}
	}
}

func TestPosteriorRevertsToPriorFarAway(t *testing.T) {
	xs := [][]float64{{0}, {0.1}}
	ys := []float64{5, 5.1}
	g := New(kernel.NewRBF(1), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	mu, v := g.Predict([]float64{100})
	// Far away: mean reverts to empirical mean, variance to kernel variance.
	if math.Abs(mu-5.05) > 1e-6 {
		t.Errorf("far mean = %v, want 5.05", mu)
	}
	if math.Abs(v-1) > 1e-6 {
		t.Errorf("far variance = %v, want 1", v)
	}
}

func TestGPRecoversSmootheFunction(t *testing.T) {
	rng := stats.NewRNG(3)
	f := func(x float64) float64 { return math.Sin(3*x) + 0.5*x }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ {
		x := rng.Float64() * 4
		xs = append(xs, []float64{x})
		ys = append(ys, f(x)+0.01*rng.NormFloat64())
	}
	g := New(kernel.NewMatern52(1), 1e-3)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	var obs, pred []float64
	for i := 0; i < 50; i++ {
		x := 0.05 + float64(i)*(3.9/50)
		mu, _ := g.Predict([]float64{x})
		obs = append(obs, f(x))
		pred = append(pred, mu)
	}
	if r2 := stats.R2(obs, pred); r2 < 0.98 {
		t.Fatalf("R² = %v, want > 0.98", r2)
	}
}

func TestPredictBatchConsistentWithPredict(t *testing.T) {
	rng := stats.NewRNG(7)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 15; i++ {
		xs = append(xs, []float64{rng.Float64() * 3, rng.Float64() * 3})
		ys = append(ys, xs[i][0]*xs[i][1])
	}
	g := New(kernel.NewMatern52(2), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{{0.5, 0.5}, {1.5, 2.0}, {2.9, 0.1}}
	mu, cov := g.PredictBatch(qs)
	for i, q := range qs {
		m, v := g.Predict(q)
		if math.Abs(mu[i]-m) > 1e-9 {
			t.Errorf("batch mean[%d] = %v, pointwise %v", i, mu[i], m)
		}
		if math.Abs(cov.At(i, i)-v) > 1e-9 {
			t.Errorf("batch var[%d] = %v, pointwise %v", i, cov.At(i, i), v)
		}
	}
	if d := cov.SymmetricMaxAbsOffDiag(); d > 1e-12 {
		t.Errorf("posterior covariance asymmetry %v", d)
	}
}

func TestSampleJointMatchesPosterior(t *testing.T) {
	rng := stats.NewRNG(11)
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{0, 1, 0}
	g := New(kernel.NewRBF(1), 1e-4)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{{0.5}, {1.5}}
	mu, cov := g.PredictBatch(qs)
	samples := g.SampleJoint(qs, 20000, rng)
	for j := 0; j < len(qs); j++ {
		col := make([]float64, len(samples))
		for i, s := range samples {
			col[i] = s[j]
		}
		if m := stats.Mean(col); math.Abs(m-mu[j]) > 0.02 {
			t.Errorf("sample mean[%d] = %v, posterior %v", j, m, mu[j])
		}
		if v := stats.Variance(col); math.Abs(v-cov.At(j, j)) > 0.02 {
			t.Errorf("sample var[%d] = %v, posterior %v", j, v, cov.At(j, j))
		}
	}
}

// sampleMVN is the MVN sampler DrawMVN replaced, kept as its oracle: a
// fresh CholJitter factor, fresh rows, and mu + L·z read through At. A
// covariance no jitter rescues returns the mean in every row and bumps
// counter once.
func sampleMVN(mu mat.Vector, cov *mat.Matrix, nSamples int, rng *rand.Rand, counter *atomic.Uint64) [][]float64 {
	q := len(mu)
	out := make([][]float64, nSamples)
	c, err := mat.CholJitter(cov)
	if err != nil && counter != nil {
		counter.Add(1)
	}
	z := mat.NewVector(q)
	for s := range out {
		out[s] = append([]float64(nil), mu...)
		if err != nil {
			continue
		}
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for i := 0; i < q; i++ {
			var acc float64
			for j := 0; j <= i; j++ {
				acc += c.L.At(i, j) * z[j]
			}
			out[s][i] += acc
		}
	}
	return out
}

// drawMVN is DrawMVN into fresh rows on a fresh workspace.
func drawMVN(mu mat.Vector, cov *mat.Matrix, nSamples int, rng *rand.Rand, counter *atomic.Uint64) [][]float64 {
	out := newRows(nSamples, len(mu))
	DrawMVN(mat.NewWorkspace(), out, mu, cov, rng, counter)
	return out
}

func TestSampleMVNDegenerateCovariance(t *testing.T) {
	rng := stats.NewRNG(13)
	mu := mat.Vector{1, 2}
	cov := mat.NewMatrix(2, 2) // exactly singular (zero) covariance
	samples := drawMVN(mu, cov, 5, rng, nil)
	for _, s := range samples {
		// With zero covariance the samples collapse to (almost) the mean;
		// jitter adds at most ~1e-2 noise in pathological cases.
		if math.Abs(s[0]-1) > 0.1 || math.Abs(s[1]-2) > 0.1 {
			t.Fatalf("degenerate sample = %v", s)
		}
	}
}

// TestDrawMVNMatchesOracle holds the workspace sampler to the allocating
// one it replaced, bit for bit, on random, rank-deficient and indefinite
// covariances, with a dirty reused workspace.
func TestDrawMVNMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(17)
	ws := mat.NewWorkspace()
	for trial := 0; trial < 40; trial++ {
		q := 1 + rng.IntN(7)
		f := mat.NewMatrix(q, q)
		rank := q
		if trial%4 == 1 {
			rank = 1 + rng.IntN(q) // rank-deficient: needs the jitter ladder
		}
		for i := range f.Data {
			if i%q < rank {
				f.Data[i] = rng.NormFloat64()
			}
		}
		cov := f.Mul(f.T())
		if trial%4 == 3 {
			cov.Set(0, 0, -1) // indefinite: no jitter rescues it
		}
		mu := mat.NewVector(q)
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		var wantN, gotN atomic.Uint64
		seed := uint64(trial)
		want := sampleMVN(mu, cov, 6, rand.New(rand.NewPCG(seed, 1)), &wantN)
		ws.Reset()
		got := newRows(6, q)
		DrawMVN(ws, got, mu, cov, rand.New(rand.NewPCG(seed, 1)), &gotN)
		if wantN.Load() != gotN.Load() {
			t.Fatalf("trial %d: fallbacks %d, oracle %d", trial, gotN.Load(), wantN.Load())
		}
		for s := range want {
			for i := range want[s] {
				if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
					t.Fatalf("trial %d: draw[%d][%d] = %v, oracle %v", trial, s, i, got[s][i], want[s][i])
				}
			}
		}
	}
}

func TestAddObservationMatchesFullFit(t *testing.T) {
	// Growing a GP one AddObservation at a time must agree with a fresh
	// Fit on the same data: same predictions everywhere.
	rng := stats.NewRNG(41)
	f := func(x []float64) float64 { return math.Sin(3*x[0]) + 0.5*x[0] }
	inc := New(kernel.NewRBF(1), 1e-4)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 20; i++ {
		x := []float64{3 * rng.Float64()}
		y := f(x)
		xs = append(xs, x)
		ys = append(ys, y)
		if err := inc.AddObservation(x, y); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if inc.N() != i+1 {
			t.Fatalf("N=%d after %d adds", inc.N(), i+1)
		}
	}
	full := New(kernel.NewRBF(1), 1e-4)
	if err := full.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{-0.5, 0.1, 1.3, 2.2, 3.5} {
		mi, vi := inc.Predict([]float64{q})
		mf, vf := full.Predict([]float64{q})
		if math.Abs(mi-mf) > 1e-8 || math.Abs(vi-vf) > 1e-8 {
			t.Fatalf("x=%v: incremental (%v, %v) vs full (%v, %v)", q, mi, vi, mf, vf)
		}
	}
	if math.Abs(inc.LogMarginalLikelihood()-full.LogMarginalLikelihood()) > 1e-8 {
		t.Fatalf("LML %v vs %v", inc.LogMarginalLikelihood(), full.LogMarginalLikelihood())
	}
}

func TestAddObservationDuplicateFallsBack(t *testing.T) {
	// An exact duplicate input makes the extended covariance singular up to
	// the noise term; with tiny noise the O(n²) extension may fail and must
	// transparently fall back to the jittered refactorization.
	g := New(kernel.NewRBF(1), 1e-10)
	if err := g.Fit([][]float64{{0}, {1}}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := g.AddObservation([]float64{1}, 1.01); err != nil {
			t.Fatalf("duplicate add %d: %v", i, err)
		}
	}
	if g.N() != 5 {
		t.Fatalf("N=%d, want 5", g.N())
	}
	mu, _ := g.Predict([]float64{1})
	if math.IsNaN(mu) {
		t.Fatal("NaN prediction after duplicate adds")
	}
}

func TestAddObservationOnEmptyFits(t *testing.T) {
	g := New(kernel.NewRBF(1), 1e-4)
	if err := g.AddObservation([]float64{0.5}, 2); err != nil {
		t.Fatal(err)
	}
	if g.N() != 1 {
		t.Fatalf("N=%d", g.N())
	}
	if err := g.AddObservation([]float64{1, 2}, 0); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestSetTargetsRescalesWithoutRefactor(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{1, 2, 3}
	g := New(kernel.NewRBF(1), 1e-6)
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	scaled := []float64{2, 4, 6}
	if err := g.SetTargets(scaled); err != nil {
		t.Fatal(err)
	}
	ref := New(kernel.NewRBF(1), 1e-6)
	if err := ref.Fit(xs, scaled); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.3, 1.7} {
		ms, _ := g.Predict([]float64{q})
		mr, _ := ref.Predict([]float64{q})
		if math.Abs(ms-mr) > 1e-9 {
			t.Fatalf("x=%v: SetTargets mean %v vs refit %v", q, ms, mr)
		}
	}
	if err := g.SetTargets([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := New(kernel.NewRBF(1), 1e-4).SetTargets([]float64{1}); err == nil {
		t.Fatal("SetTargets on unfitted model accepted")
	}
}

func TestPredictMeanMatchesPredict(t *testing.T) {
	rng := stats.NewRNG(43)
	g := New(kernel.NewMatern52(2), 1e-4)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 15; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, x[0]*x[1])
	}
	if err := g.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q := []float64{rng.Float64(), rng.Float64()}
		mu, _ := g.Predict(q)
		if got := g.PredictMean(q); math.Abs(got-mu) > 1e-12 {
			t.Fatalf("PredictMean %v vs Predict %v", got, mu)
		}
	}
}

func TestMVNFallbackCounter(t *testing.T) {
	// An indefinite "covariance" cannot be factorized even with jitter, so
	// DrawMVN must return the mean and bump the owner's counter.
	bad := mat.NewMatrix(2, 2)
	bad.Set(0, 0, 1)
	bad.Set(1, 1, -5)
	mu := mat.NewVector(2)
	mu[0], mu[1] = 3, 7
	var n atomic.Uint64
	out := drawMVN(mu, bad, 4, stats.NewRNG(44), &n)
	if got := n.Load(); got != 1 {
		t.Fatalf("fallback counter %d, want 1", got)
	}
	for _, row := range out {
		if row[0] != 3 || row[1] != 7 {
			t.Fatalf("fallback sample %v, want the mean", row)
		}
	}
	// A healthy covariance must not bump it.
	drawMVN(mu, &mat.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, 1}}, 4, stats.NewRNG(45), &n)
	if got := n.Load(); got != 1 {
		t.Fatalf("healthy covariance bumped the counter to %d", got)
	}
}
