package exp

import (
	"io"
	"math"
	"testing"
)

// TestSparseScaleLifecycle runs the CI shape of the 10×-observation scale
// scenario both ways and pins the sparse path's semantics: it actually runs
// sparse models (inducing adds and MaxObs forgets happen), actually reuses
// cached draws on the repeated epoch, and stays within 0.05 of the exact
// run's true benefit on the same instance.
func TestSparseScaleLifecycle(t *testing.T) {
	exact, err := SparseScale(SparseScaleConfig{Fast: true, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact.GPInducing != 0 || exact.GPForgets != 0 || exact.DrawsReused != 0 {
		t.Fatalf("exact path moved sparse counters: %+v", exact)
	}
	if exact.GPObs == 0 || !isFinite(exact.Benefit) {
		t.Fatalf("exact run implausible: %+v", exact)
	}

	sparse, err := SparseScale(SparseScaleConfig{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.GPObs != exact.GPObs {
		t.Fatalf("paths fed different observation counts: sparse %d exact %d",
			sparse.GPObs, exact.GPObs)
	}
	if sparse.GPInducing == 0 {
		t.Fatal("sparse run promoted no inducing points")
	}
	if sparse.GPForgets == 0 {
		t.Fatal("MaxObs budget never forgot an observation")
	}
	if sparse.DrawsReused == 0 {
		t.Fatal("repeated epoch reused no cached draws")
	}
	if sparse.Inducing == 0 {
		t.Fatalf("sparse report lost its inducing cap: %+v", sparse)
	}
	// The model approximation may move the chosen schedule, but not far:
	// FuzzSparseVsExactGP owns the tight posterior comparison, this test
	// owns the end-to-end regret bound.
	if d := math.Abs(sparse.Benefit - exact.Benefit); d > 0.05 {
		t.Fatalf("sparse benefit %v vs exact %v diverged by %v", sparse.Benefit, exact.Benefit, d)
	}
}

// TestAblationSparseRuns exercises the regret-vs-exact sweep at its
// smallest shape: one exact reference row plus one row per budget, paired
// regret consistent with the row benefits.
func TestAblationSparseRuns(t *testing.T) {
	rows := AblationSparse(io.Discard, AblationSparseConfig{
		Budgets: []int{16}, Reps: 1, Fast: true,
	})
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want exact + 1 budget", len(rows))
	}
	if rows[0].Inducing != 0 || rows[0].Speedup != 1 {
		t.Fatalf("first row is not the exact reference: %+v", rows[0])
	}
	r := rows[1]
	if r.Inducing != 16 {
		t.Fatalf("budget row carries m=%d, want 16", r.Inducing)
	}
	if got := rows[0].Benefit - r.Benefit; math.Abs(got-r.Regret) > 1e-12 {
		t.Fatalf("regret %v inconsistent with benefits (want %v)", r.Regret, got)
	}
	if r.Forgets == 0 {
		t.Fatal("sparse ablation row never forgot an observation")
	}
	if r.Seconds <= 0 || rows[0].Seconds <= 0 {
		t.Fatalf("non-positive wall times: %+v", rows)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
