package pamo

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pref"
)

func TestRunEmitsPhaseSpansAndMetrics(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	sys := testSys(3, 3, 31)
	opt := smallOpts(13)
	opt.Obs = rec
	res, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	acq := 0
	for _, ev := range evs {
		if ev.Kind == "span" {
			spans[ev.Name]++
		}
		if ev.Name == "acq" {
			acq++
		}
	}
	for _, phase := range []string{"profiling", "outcome_model", "preference", "solution"} {
		if spans[phase] != 1 {
			t.Fatalf("span %q count %d, want 1 (spans %v)", phase, spans[phase], spans)
		}
	}
	if spans["iteration"] != res.Iters {
		t.Fatalf("iteration spans %d vs result iters %d", spans["iteration"], res.Iters)
	}
	if acq == 0 {
		t.Fatal("no acquisition events")
	}

	snap := rec.Registry().Snapshot()
	if got := snap.Counters["pamo_iterations_total"]; got != uint64(res.Iters) {
		t.Fatalf("pamo_iterations_total %d vs iters %d", got, res.Iters)
	}
	if snap.Counters["pamo_profiles_total"] == 0 {
		t.Fatal("pamo_profiles_total is zero after a run")
	}
	if snap.Counters["pamo_observations_total"] == 0 {
		t.Fatal("pamo_observations_total is zero after a run")
	}
	h, ok := snap.Histograms["pamo_iteration_seconds"]
	if !ok || h.Count != uint64(res.Iters) {
		t.Fatalf("pamo_iteration_seconds count %v (ok=%v), want %d", h.Count, ok, res.Iters)
	}
	if snap.Gauges["pamo_mvn_fallbacks"] != float64(res.MVNFallbacks) {
		t.Fatalf("pamo_mvn_fallbacks gauge %v vs result %d",
			snap.Gauges["pamo_mvn_fallbacks"], res.MVNFallbacks)
	}
}

// TestPrefComparisonsCounterMatchesResult pins pamo_pref_comparisons_total
// to Result.PrefPairs: every decision-maker ask — the preference phase, the
// per-iteration updates and the final tournament — counts exactly once.
func TestPrefComparisonsCounterMatchesResult(t *testing.T) {
	rec := obs.NewRecorder(nil)
	sys := testSys(3, 3, 31)
	opt := smallOpts(13)
	opt.Obs = rec
	counter := rec.Registry().Counter("pamo_pref_comparisons_total")
	counter.Add(5) // the counter is process-wide: assert the delta, not the total
	before := counter.Value()
	res, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefPairs == 0 {
		t.Fatal("run asked no preference comparisons")
	}
	if got := counter.Value() - before; got != uint64(res.PrefPairs) {
		t.Fatalf("pamo_pref_comparisons_total grew by %d over the run, Result.PrefPairs = %d", got, res.PrefPairs)
	}
}

// TestOneFactorPerClip pins the clip's shared factor through the
// Cholesky-path counters: the outcome-model phase factorizes each of the M
// clips once (not once per metric), and every later observation conditions
// each clip through exactly one extension or refactorization, while
// gp_obs_total still counts per metric column.
func TestOneFactorPerClip(t *testing.T) {
	rec := obs.NewRecorder(nil)
	sys := testSys(4, 3, 31)
	opt := smallOpts(13)
	opt.Obs = rec
	truth := objective.UniformPreference()
	opt.TruePref = &truth
	s := New(sys, &pref.Oracle{Pref: truth}, opt)
	s.ctx, s.evctx = context.Background(), context.Background() // as RunContext sets them
	if err := s.profileInit(); err != nil {
		t.Fatal(err)
	}
	m := uint64(sys.M())
	snap := rec.Registry().Snapshot()
	if got := snap.Counters["pamo_chol_refactorize_total"]; got != m {
		t.Fatalf("pamo_chol_refactorize_total after the outcome-model phase = %d, want M = %d", got, m)
	}
	if got := snap.Counters["pamo_chol_incremental_total"]; got != 0 {
		t.Fatalf("pamo_chol_incremental_total after the outcome-model phase = %d, want 0", got)
	}
	if got, want := snap.Counters["gp_obs_total"], uint64(numMetrics)*uint64(s.profiles); got != want {
		t.Fatalf("gp_obs_total = %d, want %d (five metric models per profile)", got, want)
	}
	if err := s.initialObservations(); err != nil {
		t.Fatal(err)
	}
	snap = rec.Registry().Snapshot()
	conditioned := snap.Counters["pamo_chol_refactorize_total"] + snap.Counters["pamo_chol_incremental_total"]
	if want := m * uint64(1+len(s.obs)); conditioned != want {
		t.Fatalf("%d factor operations after %d observations, want M·(1+obs) = %d", conditioned, len(s.obs), want)
	}
}

func TestRunWithNilRecorderMatchesRecorded(t *testing.T) {
	// Telemetry must be strictly observational: the same seed must yield an
	// identical decision with and without a recorder attached.
	runOnce := func(rec *obs.Recorder) *Result {
		sys := testSys(3, 3, 47)
		opt := smallOpts(17)
		opt.Obs = rec
		res, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := runOnce(nil)
	recorded := runOnce(obs.NewRecorder(nil))
	if plain.Best.Benefit != recorded.Best.Benefit || plain.Iters != recorded.Iters {
		t.Fatalf("telemetry changed the run: benefit %v vs %v, iters %d vs %d",
			plain.Best.Benefit, recorded.Best.Benefit, plain.Iters, recorded.Iters)
	}
	for i := range plain.Best.Decision.Configs {
		if plain.Best.Decision.Configs[i] != recorded.Best.Decision.Configs[i] {
			t.Fatalf("decision diverged at clip %d", i)
		}
	}
}

// TestZeroOptionsSelectPairsByEUBO pins the paper's pair selection as the
// default: a learned-preference run on zero-valued Options spends EUBO
// queries (Eq. 11) after its first, random comparison.
func TestZeroOptionsSelectPairsByEUBO(t *testing.T) {
	rec := obs.NewRecorder(nil)
	opt := Options{Obs: rec}
	if _, err := New(testSys(3, 3, 31), &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Registry().Snapshot().Counters["pamo_eubo_queries_total"]; got == 0 {
		t.Fatal("pamo_eubo_queries_total is 0: zero Options fell back to random pairs")
	}
}
