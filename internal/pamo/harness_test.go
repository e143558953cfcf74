package pamo

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pref"
)

// TestValidateDeterministicMessage pins the Options.Validate fix: with
// several invalid options at once, the error must name ALL of them, in
// struct field order, identically on every call — the old map iteration
// made the reported option depend on Go's randomized map order.
func TestValidateDeterministicMessage(t *testing.T) {
	o := Options{
		InitProfiles: -1,
		PrefPairs:    -3,
		MCSamples:    -2,
		Workers:      -9,
		Delta:        -0.5,
		Acq:          "bogus",
	}
	first := o.Validate()
	if first == nil {
		t.Fatal("invalid options accepted")
	}
	msg := first.Error()
	for _, want := range []string{
		"InitProfiles", "PrefPairs", "MCSamples", "Workers",
		"Delta", `"bogus"`,
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q does not mention %s", msg, want)
		}
	}
	// Field order is fixed: InitProfiles before PrefPairs before Workers.
	if strings.Index(msg, "InitProfiles") > strings.Index(msg, "PrefPairs") ||
		strings.Index(msg, "PrefPairs") > strings.Index(msg, "Workers") {
		t.Fatalf("violations out of field order: %q", msg)
	}
	for i := 0; i < 100; i++ {
		if got := o.Validate().Error(); got != msg {
			t.Fatalf("run %d: message changed:\n%q\n%q", i, got, msg)
		}
	}
}

// TestAcqStreamNoCollisions pins the seed-derivation fix: across 10k
// acquisition rounds and multiple seeds, every derived PCG stream must be
// distinct. The old derivation Seed^(round·GOLDEN) provably collided —
// demonstrated at the bottom.
func TestAcqStreamNoCollisions(t *testing.T) {
	const golden = 0x9E3779B97F4A7C15
	type pair struct{ hi, lo uint64 }
	seen := make(map[pair][]string, 40000)
	for _, seed := range []uint64{0, 1, golden, 0xDEADBEEF} {
		for round := uint64(0); round < 10000; round++ {
			hi, lo := acqStream(seed, round)
			p := pair{hi, lo}
			seen[p] = append(seen[p], "")
			if len(seen[p]) > 1 {
				t.Fatalf("stream collision at seed=%#x round=%d", seed, round)
			}
		}
	}

	// The old scheme: seed=0 at round 0 and seed=GOLDEN at round 1 both
	// derived state word 0 (with the constant 0xACC as the second word).
	oldDerive := func(seed, round uint64) uint64 { return seed ^ (round * golden) }
	if oldDerive(0, 0) != oldDerive(golden, 1) {
		t.Fatal("expected the old derivation to collide (the bug this test pins)")
	}
}

// TestStrictRunCleanAndCheckedMetrics runs PaMO end to end under a strict
// checker: no invariant may fire on a healthy run, and the check_* metrics
// must show decisions were actually verified.
func TestStrictRunCleanAndCheckedMetrics(t *testing.T) {
	rec := obs.NewRecorder(nil)
	chk := check.New(true, rec)
	sys := testSys(5, 4, 7)
	opt := smallOpts(3)
	opt.Check = chk
	// Fixed belief (PaMO+): the incumbent guard runs in its strict
	// monotone mode.
	truth := objective.UniformPreference()
	opt.TruePref = &truth
	s := New(sys, &pref.Oracle{Pref: truth}, opt)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("strict run failed: %v", err)
	}
	if res.Iters == 0 {
		t.Fatal("no iterations ran")
	}
	snap := rec.Registry().Snapshot()
	if snap.Counters["check_checks_feasibility"] == 0 {
		t.Fatal("no decision was feasibility-checked")
	}
	if snap.Counters["check_checks_incumbent"] == 0 {
		t.Fatal("incumbent guard never ran")
	}
	if snap.Counters["check_checks_psd"] == 0 {
		t.Fatal("no posterior covariance was PSD-checked")
	}
	// Deployed-decision (true-proc) checks are metric-only: model error may
	// legitimately fire check_violation_const2, but planner-side invariants
	// must be clean, so any violation recorded must come from the relaxed
	// true-proc pass, not from a strict check (which would have errored).
	if v := snap.Counters["check_violations_total"]; v > 0 {
		t.Logf("relaxed true-proc checks recorded %d violations (model error, expected to be possible)", v)
	}
}

// TestLearnedPrefRunUnderStrictChecker: the incumbent guard must tolerate
// benefit-scale drift from preference refreshes (fixedBelief=false) — a
// learned-preference run must not error out on a rescale.
func TestLearnedPrefRunUnderStrictChecker(t *testing.T) {
	rec := obs.NewRecorder(nil)
	opt := smallOpts(11)
	opt.Check = check.New(true, rec)
	sys := testSys(4, 3, 21)
	s := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt)
	if _, err := s.Run(); err != nil {
		t.Fatalf("learned-preference strict run failed: %v", err)
	}
}
