package check

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/videosim"
)

// oldFloatConst2 is the pre-audit tolerance check, reproduced here so the
// acceptance test below can exhibit a plan it accepted that the exact
// verifier rejects.
func oldFloatConst2(streams []sched.Stream, assign []int, n int) bool {
	procSum := make([]float64, n)
	gcds := make([]sched.Rational, n)
	for i, s := range streams {
		j := assign[i]
		if j < 0 {
			return false
		}
		procSum[j] += s.Proc
		gcds[j] = sched.RatGCD(gcds[j], s.Period)
	}
	for j := 0; j < n; j++ {
		if gcds[j].Num == 0 {
			continue
		}
		if procSum[j] > gcds[j].Float()+1e-12 {
			return false
		}
	}
	return true
}

// TestRejectsPlanTheFloatCheckAccepted is the harness's acceptance
// criterion: a hand-built plan whose Σ pᵢ exceeds the period gcd by less
// than the old 1e-12 tolerance — so the float check passes — must be
// rejected by the exact verifier.
func TestRejectsPlanTheFloatCheckAccepted(t *testing.T) {
	// float64 0.05 is marginally above 1/20, so two of them marginally
	// exceed the 1/10 period gcd. The periods are mixed (1/5 and 1/10) so
	// Const1 still holds (exact utilization 0.75+ε ≤ 1) and Const2 is the
	// only violated constraint.
	streams := []sched.Stream{
		{Video: 0, Period: sched.Rat(1, 5), Proc: 0.05},
		{Video: 1, Period: sched.RatFromFPS(10), Proc: 0.05},
	}
	assign := []int{0, 0}
	if !oldFloatConst2(streams, assign, 1) {
		t.Fatal("setup broken: the old float check was supposed to accept this plan")
	}
	rec := obs.NewRecorder(nil)
	chk := New(true, rec)
	err := chk.VerifyAssignmentServers(streams, assign, make([]cluster.Server, 1))
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != "const2" {
		t.Fatalf("exact verifier returned %v, want const2 violation", err)
	}
	if got := rec.Registry().Counter("check_violation_const2").Value(); got != 1 {
		t.Fatalf("check_violation_const2 = %d, want 1", got)
	}
	if chk.Violations() != 1 {
		t.Fatalf("Violations() = %d, want 1", chk.Violations())
	}
}

func TestNonStrictRecordsButReturnsNil(t *testing.T) {
	streams := []sched.Stream{
		{Video: 0, Period: sched.RatFromFPS(10), Proc: 0.2}, // util 2 > 1
	}
	rec := obs.NewRecorder(nil)
	chk := New(false, rec)
	if err := chk.VerifyAssignmentServers(streams, []int{0}, make([]cluster.Server, 1)); err != nil {
		t.Fatalf("non-strict checker returned error: %v", err)
	}
	if chk.Violations() != 1 {
		t.Fatalf("Violations() = %d, want 1", chk.Violations())
	}
}

func TestNilCheckerIsNoop(t *testing.T) {
	var chk *Checker
	if err := chk.VerifyAssignmentServers(nil, nil, make([]cluster.Server, 0)); err != nil {
		t.Fatal(err)
	}
	if err := chk.VerifyDecisionServers(eva.Decision{}, make([]cluster.Server, 0)); err != nil {
		t.Fatal(err)
	}
	if err := chk.Finite("x", math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := chk.PSDCov("c", nil); err != nil {
		t.Fatal(err)
	}
	if err := chk.NewIncumbent(true).Observe(math.NaN()); err != nil {
		t.Fatal(err)
	}
	if chk.Violations() != 0 {
		t.Fatal("nil checker counted violations")
	}
	// A checker with a nil recorder still decides invariants.
	strict := New(true, nil)
	if err := strict.Finite("x", math.Inf(1)); err == nil {
		t.Fatal("strict checker with nil recorder missed a violation")
	}
}

func TestVerifyAssignmentDiagnoses(t *testing.T) {
	rec := obs.NewRecorder(nil)
	chk := New(true, rec)
	good := []sched.Stream{{Video: 0, Period: sched.RatFromFPS(10), Proc: 0.05}}

	cases := []struct {
		name      string
		streams   []sched.Stream
		assign    []int
		n         int
		invariant string // "" = must pass
	}{
		{"feasible", good, []int{0}, 1, ""},
		{"shape", good, []int{0, 1}, 2, "shape"},
		{"range", good, []int{3}, 2, "assign_range"},
		{"unassigned", good, []int{-1}, 1, "assign_range"},
		{"nan", []sched.Stream{{Period: sched.RatFromFPS(10), Proc: math.NaN()}}, []int{0}, 1, "finite"},
		{"const1", []sched.Stream{
			{Period: sched.Rat(1, 1), Proc: math.Nextafter(1, 2)},
		}, []int{0}, 1, "const1"},
		{"const2", []sched.Stream{
			{Period: sched.Rat(3, 10), Proc: 0.12},
			{Period: sched.Rat(1, 5), Proc: 0.05},
		}, []int{0, 0}, 1, "const2"},
	}
	for _, tc := range cases {
		err := chk.VerifyAssignmentServers(tc.streams, tc.assign, make([]cluster.Server, tc.n))
		if tc.invariant == "" {
			if err != nil {
				t.Fatalf("%s: unexpected violation %v", tc.name, err)
			}
			continue
		}
		var v *Violation
		if !errors.As(err, &v) || v.Invariant != tc.invariant {
			t.Fatalf("%s: got %v, want %s violation", tc.name, err, tc.invariant)
		}
	}
}

func TestVerifyDecision(t *testing.T) {
	chk := New(true, obs.NewRecorder(nil))
	streams := []sched.Stream{
		{Video: 0, Period: sched.RatFromFPS(10), Proc: 0.04},
		{Video: 1, Period: sched.RatFromFPS(10), Proc: 0.04},
	}
	cfgs := []videosim.Config{{FPS: 10}, {FPS: 10}}
	d := eva.Decision{Configs: cfgs, Streams: streams, Assign: []int{0, 1}}
	if err := chk.VerifyDecisionServers(d, make([]cluster.Server, 2)); err != nil {
		t.Fatalf("feasible decision rejected: %v", err)
	}

	bad := d
	bad.Offsets = []float64{0.01} // wrong length
	if err := chk.VerifyDecisionServers(bad, make([]cluster.Server, 2)); err == nil {
		t.Fatal("mismatched offsets accepted")
	}
	bad = d
	bad.Offsets = []float64{0.01, math.NaN()}
	if err := chk.VerifyDecisionServers(bad, make([]cluster.Server, 2)); err == nil {
		t.Fatal("NaN offset accepted")
	}
	// A degraded decision that still schedules a shed video is inconsistent.
	bad = d
	bad.Shed = []int{1}
	if err := chk.VerifyDecisionServers(bad, make([]cluster.Server, 2)); err == nil {
		t.Fatal("shed video still scheduled but accepted")
	}
	// A consistent degraded decision passes the same checks.
	degraded := eva.Decision{
		Configs:    cfgs,
		Streams:    streams[:1],
		Assign:     []int{0},
		Shed:       []int{1},
		Downgraded: []int{0},
	}
	if err := chk.VerifyDecisionServers(degraded, make([]cluster.Server, 2)); err != nil {
		t.Fatalf("consistent degraded decision rejected: %v", err)
	}
}

func TestObserveJitter(t *testing.T) {
	rec := obs.NewRecorder(nil)
	chk := New(true, rec)
	if err := chk.ObserveJitter(0, true); err != nil {
		t.Fatalf("zero jitter flagged: %v", err)
	}
	if err := chk.ObserveJitter(0.25, false); err != nil {
		t.Fatalf("unclaimed jitter flagged: %v", err)
	}
	if err := chk.ObserveJitter(0.25, true); err == nil {
		t.Fatal("claimed zero-jitter decision with 0.25s jitter accepted")
	}
	if g := rec.Registry().Gauge("check_last_jitter_s").Value(); g != 0.25 {
		t.Fatalf("check_last_jitter_s = %v, want 0.25", g)
	}
}

func TestPSDCov(t *testing.T) {
	chk := New(true, obs.NewRecorder(nil))
	psd := mat.NewMatrix(2, 2)
	psd.Set(0, 0, 1)
	psd.Set(1, 1, 1)
	psd.Set(0, 1, 0.5)
	psd.Set(1, 0, 0.5)
	if err := chk.PSDCov("cov", psd); err != nil {
		t.Fatalf("PSD matrix rejected: %v", err)
	}
	// Rank-deficient but semi-definite: the jitter ladder must rescue it.
	semi := mat.NewMatrix(2, 2)
	semi.Set(0, 0, 1)
	semi.Set(1, 1, 1)
	semi.Set(0, 1, 1)
	semi.Set(1, 0, 1)
	if err := chk.PSDCov("cov", semi); err != nil {
		t.Fatalf("semi-definite matrix rejected: %v", err)
	}
	// Genuinely indefinite: eigenvalues 1±2.
	indef := mat.NewMatrix(2, 2)
	indef.Set(0, 0, 1)
	indef.Set(1, 1, 1)
	indef.Set(0, 1, 2)
	indef.Set(1, 0, 2)
	if err := chk.PSDCov("cov", indef); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	asym := psd.Clone()
	asym.Set(0, 1, 0.25)
	if err := chk.PSDCov("cov", asym); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	nan := psd.Clone()
	nan.Set(1, 1, math.NaN())
	if err := chk.PSDCov("cov", nan); err == nil {
		t.Fatal("NaN covariance accepted")
	}
	if err := chk.PSDCov("cov", mat.NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestIncumbentGuard(t *testing.T) {
	rec := obs.NewRecorder(nil)
	chk := New(true, rec)

	fixed := chk.NewIncumbent(true)
	for _, b := range []float64{1, 1, 2, 2.5} {
		if err := fixed.Observe(b); err != nil {
			t.Fatalf("monotone sequence flagged at %v: %v", b, err)
		}
	}
	if err := fixed.Observe(2.4); err == nil {
		t.Fatal("incumbent drop under fixed belief accepted")
	}

	learned := chk.NewIncumbent(false)
	for _, b := range []float64{1, 2, 1.5, 1.6} {
		if err := learned.Observe(b); err != nil {
			t.Fatalf("learned-belief rescale flagged at %v: %v", b, err)
		}
	}
	if got := rec.Registry().Counter("check_incumbent_rescale_total").Value(); got != 1 {
		t.Fatalf("check_incumbent_rescale_total = %d, want 1", got)
	}
	// After the rescale the baseline follows the new scale: a drop below
	// 1.5→1.6's running best is again a rescale, not silently ignored.
	if err := learned.Observe(math.NaN()); err == nil {
		t.Fatal("NaN incumbent accepted")
	}
}

func TestAlgorithm1PlansAlwaysPass(t *testing.T) {
	// Every plan Algorithm 1 emits must clear the exact checks with no
	// tolerance — the grouping admission is itself exact now.
	chk := New(true, obs.NewRecorder(nil))
	streams := sched.SplitHighRate([]sched.Stream{
		{Video: 0, Period: sched.RatFromFPS(5), Proc: 0.05, Bits: 2e5},
		{Video: 1, Period: sched.RatFromFPS(10), Proc: 0.04, Bits: 3e5},
		{Video: 2, Period: sched.RatFromFPS(15), Proc: 0.1, Bits: 1e5}, // s·p = 1.5 → splits in 2
	})
	servers := []cluster.Server{{Uplink: 1e7}, {Uplink: 2e7}, {Uplink: 3e7}}
	plan, err := sched.Schedule(streams, servers)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.VerifyAssignmentServers(streams, plan.StreamServer, servers); err != nil {
		t.Fatalf("Algorithm 1 plan failed the exact checks: %v", err)
	}
}
