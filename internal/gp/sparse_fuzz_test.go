package gp

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
)

// FuzzSparseVsExactGP differentially fuzzes the inducing-point sparse GP
// against the exact GP on the same data, in the style of
// FuzzAddObservationVsFit:
//
//   - With an unbounded inducing budget (m = n) the SoR/FITC posterior IS
//     the exact posterior, so mean, variance, and log marginal likelihood
//     must agree within a conditioning-scaled tolerance.
//   - With a compressed budget (m < n) the posterior mean must stay within
//     the Nyström error envelope: ‖Kff − Qff‖∞ is bounded by the selection
//     residual, which the greedy pivoted-Cholesky selection reports, and the
//     mean error is at most that residual amplified by ‖α‖₁ ≤ n·‖y‖∞/σ².
func FuzzSparseVsExactGP(f *testing.F) {
	f.Add(uint64(1), 12, 3)
	f.Add(uint64(42), 20, 5)
	f.Add(uint64(7), 5, 8)
	f.Add(uint64(99), 28, 2)
	f.Fuzz(func(t *testing.T, seed uint64, n, noiseExp int) {
		n = 3 + absInt(n)%26
		noise := math.Pow(10, -float64(2+absInt(noiseExp)%5)) // 1e-2 .. 1e-6
		rng := rand.New(rand.NewPCG(seed, 0x59a5))

		// Inputs snap to a 0.05 grid with duplicates dropped: the sparse
		// path factors the noise-free K_uu, so coincident inputs would make
		// its conditioning unbounded — no finite tolerance covers that. The
		// exact GP always enjoys the +σ²I floor; keeping the fuzz domain at
		// bounded conditioning is what "conditioning-scaled tolerance"
		// means here.
		var xs [][]float64
		var ys []float64
		yMax := 0.0
		seen := make(map[int]bool, n)
		for len(xs) < n {
			cell := rng.IntN(61)
			if seen[cell] {
				continue
			}
			seen[cell] = true
			x := 0.05 * float64(cell)
			xs = append(xs, []float64{x})
			y := math.Sin(3*x) + 0.5*x + 0.01*rng.NormFloat64()
			ys = append(ys, y)
			if a := math.Abs(y); a > yMax {
				yMax = a
			}
		}
		mk := func() kernel.Kernel {
			k := kernel.NewMatern52(1)
			k.SetLogParams([]float64{0, math.Log(0.5)})
			return k
		}
		ex := New(mk(), noise)
		if err := ex.Fit(xs, ys); err != nil {
			t.Skipf("exact fit failed: %v", err)
		}

		// --- m ≥ n: exact equivalence up to the shared conditioning limit.
		full := NewSparse(mk(), noise, SparseOptions{MaxInducing: n, ResidualTol: 1e-300})
		if err := full.Fit(xs, ys); err != nil {
			t.Skipf("sparse fit failed: %v", err)
		}
		// Both posteriors solve systems whose condition grows like 1/noise;
		// the sparse path additionally squares the Gram inside P, so its
		// rounding floor is higher than the incremental-vs-full harness's.
		// The selection residual reports any numerical rank deficit the
		// greedy selection hit before covering all n points — the deficit is
		// real approximation error, amplified at most by ‖α‖₁.
		tol := math.Max(1e-5, 1e-10/noise) +
			full.SelectionResidual()*float64(n)*yMax/noise
		for _, q := range []float64{-0.5, 0.25, 1.0, 1.75, 2.5, 3.5} {
			ms, vs := full.Predict([]float64{q})
			me, ve := ex.Predict([]float64{q})
			if math.Abs(ms-me) > tol || math.Abs(vs-ve) > tol {
				t.Fatalf("m=n: n=%d noise=%g x=%v: sparse (%v, %v) vs exact (%v, %v), tol %v",
					n, noise, q, ms, vs, me, ve, tol)
			}
		}
		// The LML check guards against gross errors (wrong quad form, wrong
		// determinant), not precision: its quadratic term has magnitude
		// ~n·var(y)/σ² and its log-determinants come from the noise-free
		// K_uu factorization, whose jitter perturbs log|K_uu| by
		// jitter·tr(K_uu⁻¹) — a few parts in 10⁴ for smooth Grams. So the
		// band is relative and deliberately loose.
		lmlS, lmlE := full.LogMarginalLikelihood(), ex.LogMarginalLikelihood()
		lmlTol := tol*float64(n) + 3e-3*(1+math.Abs(lmlE))
		if d := math.Abs(lmlS - lmlE); d > lmlTol {
			t.Fatalf("m=n LML diverged by %v (sparse %v exact %v, tol %v)", d, lmlS, lmlE, lmlTol)
		}

		// --- m < n: the mean stays inside the Nyström error envelope.
		m := 2 + n/3
		sp := NewSparse(mk(), noise, SparseOptions{MaxInducing: m})
		if err := sp.Fit(xs, ys); err != nil {
			t.Skipf("compressed fit failed: %v", err)
		}
		if sp.M() > m {
			t.Fatalf("inducing set %d exceeds cap %d", sp.M(), m)
		}
		envelope := math.Max(1e-5, 1e-10/noise) +
			sp.SelectionResidual()*float64(n)*yMax/noise
		for _, q := range []float64{0.25, 1.0, 1.75, 2.5} {
			ms := sp.PredictMean([]float64{q})
			me := ex.PredictMean([]float64{q})
			if math.Abs(ms-me) > envelope {
				t.Fatalf("m=%d<n=%d noise=%g x=%v: sparse mean %v vs exact %v beyond envelope %v (resid %v)",
					sp.M(), n, noise, q, ms, me, envelope, sp.SelectionResidual())
			}
			// FITC variances are approximations, not bounded by the same
			// envelope, but they must stay finite and non-negative.
			if _, vs := sp.Predict([]float64{q}); vs < 0 || math.IsNaN(vs) || math.IsInf(vs, 0) {
				t.Fatalf("compressed variance %v invalid", vs)
			}
		}
	})
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// SelectionResidual returns the largest Nyström diagonal residual left after
// the last greedy inducing selection — 0 when the inducing set reproduces
// the training kernel exactly (m ≥ rank), larger as the approximation
// coarsens. Differential tests scale their tolerances with it.
func (s *SparseGP) SelectionResidual() float64 { return s.selResidual }
