package pamo

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pref"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/videosim"
)

func testSys(m, n int, seed uint64) *objective.System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: videosim.StandardClips(m, seed), Servers: servers}
}

// smallOpts keeps runs fast for unit tests.
func smallOpts(seed uint64) Options {
	return Options{
		InitProfiles: 15,
		InitObs:      3,
		PrefPairs:    10,
		PrefPool:     12,
		Batch:        2,
		MCSamples:    16,
		CandPool:     8,
		MaxIter:      4,
		Seed:         seed,
	}
}

func TestEncodeCfgRange(t *testing.T) {
	lo := EncodeConfig(videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]})
	hi := EncodeConfig(videosim.Config{
		Resolution: videosim.Resolutions[len(videosim.Resolutions)-1],
		FPS:        videosim.FrameRates[len(videosim.FrameRates)-1],
	})
	if lo[0] != 0 || lo[1] != 0 || hi[0] != 1 || hi[1] != 1 {
		t.Fatalf("encode corners: %v %v", lo, hi)
	}
}

// measure builds a measurement that reports y for every metric.
func measure(y float64) videosim.Measurement {
	return videosim.Measurement{Acc: y, ProcTime: y, Bits: y, Compute: y, Power: y}
}

func TestMetricGPLearnsCurve(t *testing.T) {
	cm := newClipModels(modelSinks{})
	for _, r := range videosim.Resolutions {
		for _, s := range videosim.FrameRates {
			cm.addMeasurement(videosim.Config{Resolution: r, FPS: s}, measure(0.125*r*r*s)) // bandwidth-like surface
		}
	}
	if err := cm.refit(); err != nil {
		t.Fatal(err)
	}
	cfg := videosim.Config{Resolution: 1250, FPS: 15}
	truth := 0.125 * 1250 * 1250 * 15
	for mi, got := range cm.means(cfg) {
		if math.Abs(got-truth)/truth > 0.1 {
			t.Fatalf("metric %d GP mean %v vs truth %v", mi, got, truth)
		}
	}
}

func TestMetricGPRefitEmptyFails(t *testing.T) {
	if err := newClipModels(modelSinks{}).refit(); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlanFeasibilityMatchesConstraints(t *testing.T) {
	sys := testSys(5, 4, 3)
	truth := objective.UniformPreference()
	s := New(sys, &pref.Oracle{Pref: truth}, smallOpts(1))
	if err := s.profileInit(); err != nil {
		t.Fatal(err)
	}
	c, ok := s.plan(s.randomConfigs())
	if !ok {
		t.Skip("random config infeasible; covered elsewhere")
	}
	if !sched.CheckConst2Servers(c.streams, c.plan.StreamServer, sys.Servers) {
		t.Fatal("plan violates Const2")
	}
}

func TestRunEndToEnd(t *testing.T) {
	sys := testSys(6, 4, 99)
	truth := objective.UniformPreference()
	dm := &pref.Oracle{Pref: truth}
	s := New(sys, dm, smallOpts(2))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters == 0 || len(res.History) == 0 {
		t.Fatalf("no iterations ran: %+v", res)
	}
	if res.Best.Decision.Configs == nil {
		t.Fatal("no best decision")
	}
	// The returned decision must be feasible and zero-jitter in simulation.
	if j := eva.MaxJitter(sys, res.Best.Decision); j > 1e-3 {
		t.Fatalf("best decision jitters: %v", j)
	}
	// Preference pairs were asked (initial V plus one per observation).
	if res.PrefPairs < 10 {
		t.Fatalf("asked only %d pairs", res.PrefPairs)
	}
	if res.Profiles == 0 {
		t.Fatal("no profiling happened")
	}
}

func TestRunPaMOPlusUsesNoComparisons(t *testing.T) {
	sys := testSys(5, 4, 55)
	truth := objective.UniformPreference()
	opt := smallOpts(3)
	opt.TruePref = &truth
	s := New(sys, nil, opt) // no decision maker needed
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefPairs != 0 {
		t.Fatalf("PaMO+ asked %d comparisons", res.PrefPairs)
	}
}

func TestPaMOPlusAtLeastAsGoodOnAverage(t *testing.T) {
	// Across seeds, PaMO+ (true preference) should achieve true benefit at
	// least around PaMO's (learned preference): the paper reports PaMO
	// within 0.0006%–11% of PaMO+.
	sys := testSys(6, 4, 77)
	truth := objective.Preference{W: objective.Vector{1, 2, 1, 1, 0.5}}
	norm := objective.NewNormalizer(sys)
	var sumPlus, sumLearned float64
	const runs = 2
	for seed := uint64(0); seed < runs; seed++ {
		optP := smallOpts(10 + seed)
		optP.TruePref = &truth
		rp, err := New(sys, nil, optP).Run()
		if err != nil {
			t.Fatal(err)
		}
		sumPlus += truth.Benefit(norm.Normalize(rp.Best.Raw))

		dm := &pref.Oracle{Pref: truth}
		rl, err := New(sys, dm, smallOpts(10+seed)).Run()
		if err != nil {
			t.Fatal(err)
		}
		sumLearned += truth.Benefit(norm.Normalize(rl.Best.Raw))
	}
	if sumLearned > sumPlus+0.3 {
		t.Fatalf("learned preference implausibly beat true preference: %v vs %v", sumLearned/runs, sumPlus/runs)
	}
	// And neither should be terrible (0 is the utopia bound).
	if sumPlus/runs < -2.5 {
		t.Fatalf("PaMO+ mean benefit %v is at the worst-case floor", sumPlus/runs)
	}
}

func TestNoisyDecisionMakerDegradesGracefully(t *testing.T) {
	// With a noisy oracle the learned preference is rougher, but the
	// scheduler must still return a sane, feasible, zero-jitter decision.
	sys := testSys(5, 4, 91)
	truth := objective.UniformPreference()
	norm := objective.NewNormalizer(sys)
	dm := &pref.Oracle{Pref: truth, Noise: 0.3, Rng: stats.NewRNG(7)}
	res, err := New(sys, dm, smallOpts(8)).Run()
	if err != nil {
		t.Fatal(err)
	}
	u := truth.Benefit(norm.Normalize(res.Best.Raw))
	// Even with heavy comparison noise the result must beat the worst-case
	// floor (-5 for uniform weights) by a wide margin.
	if u < -2.5 {
		t.Fatalf("noisy-DM benefit %v at or below the random floor", u)
	}
	if j := eva.MaxJitter(sys, res.Best.Decision); j > 1e-3 {
		t.Fatalf("noisy-DM decision jitters: %v", j)
	}
}

func TestAcquisitionVariantsRun(t *testing.T) {
	sys := testSys(4, 3, 88)
	truth := objective.UniformPreference()
	for _, a := range []Acquisition{QNEI, QEI, QUCB, QSR} {
		opt := smallOpts(7)
		opt.Acq = a
		opt.MaxIter = 2
		res, err := New(sys, &pref.Oracle{Pref: truth}, opt).Run()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if res.Best.Decision.Configs == nil {
			t.Fatalf("%s: no decision", a)
		}
	}
}

func TestObservationsImproveOverTime(t *testing.T) {
	sys := testSys(5, 4, 33)
	truth := objective.UniformPreference()
	opt := smallOpts(9)
	opt.MaxIter = 6
	opt.Delta = 1e-9 // effectively disable early stopping
	s := New(sys, &pref.Oracle{Pref: truth}, opt)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Skipf("converged immediately (history %v)", res.History)
	}
	// Best-so-far believed benefit must be non-decreasing up to the
	// preference-model rescoring drift; allow small dips.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1]-0.5 {
			t.Fatalf("best benefit collapsed: %v", res.History)
		}
	}
}

func TestDiagnosticsReportLOOQuality(t *testing.T) {
	sys := testSys(3, 3, 71)
	s := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, smallOpts(6))
	if _, err := s.Diagnostics(); err == nil {
		t.Fatal("diagnostics before profiling should fail")
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	diags, err := s.Diagnostics()
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 3*5 {
		t.Fatalf("diags = %d, want 15", len(diags))
	}
	for _, d := range diags {
		if d.N == 0 || d.Clip == "" || d.Metric == "" {
			t.Fatalf("incomplete diag %+v", d)
		}
		// The surfaces are smooth and the profiler is 2%-noise: LOO R²
		// should be clearly positive for all metrics.
		if d.R2 < 0.3 {
			t.Fatalf("LOO R² for %s/%s = %v", d.Clip, d.Metric, d.R2)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Batch: -1},
		{Delta: -0.1},
		{Acq: "nonsense"},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// Run surfaces the validation error.
	sys := testSys(2, 2, 1)
	opt := smallOpts(1)
	opt.Acq = "bogus"
	if _, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run(); err == nil {
		t.Fatal("Run accepted invalid options")
	}
}

// TestRunWithoutDecisionMakerFails pins that a learned-preference run with
// no decision maker is rejected up front with an error, not a nil
// dereference at the first comparison.
func TestRunWithoutDecisionMakerFails(t *testing.T) {
	_, err := New(testSys(2, 2, 1), nil, smallOpts(1)).Run()
	if err == nil || !strings.HasPrefix(err.Error(), "pamo: ") {
		t.Fatalf("err = %v, want a pamo: error", err)
	}
}

// TestOnIterationCallback pins the per-iteration record a caller follows a
// solve by: Result.History holds one plausible best-benefit entry per BO
// iteration, in order.
func TestOnIterationCallback(t *testing.T) {
	sys := testSys(4, 3, 22)
	opt := smallOpts(2)
	opt.Delta = 1e-9
	res, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iters {
		t.Fatalf("history has %d entries for %d iterations", len(res.History), res.Iters)
	}
	for i, best := range res.History {
		if best > 10 || best < -10 {
			t.Errorf("iteration %d: implausible best benefit %v", i+1, best)
		}
	}
}

func TestRunFailsWhenNoFeasibleConfigExists(t *testing.T) {
	// Clips so heavy that even the minimum configuration cannot satisfy
	// the zero-jitter constraint on the available servers.
	clips := make([]*videosim.Clip, 6)
	for i := range clips {
		clips[i] = &videosim.Clip{
			Name: "heavy", AccBase: 0.9, AccFactor: 1,
			ComputeFac: 16, BitFac: 1, EnergyFac: 1, // proc(500) ≈ 0.2 s
		}
	}
	sys := &objective.System{
		Clips:   clips,
		Servers: []cluster.Server{{Uplink: 1e7}},
	}
	_, err := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, smallOpts(3)).Run()
	if err == nil {
		t.Fatal("expected failure on an infeasible system")
	}
}

// TestParallelSamplingDeterministicAcrossWorkerCounts runs one seed at
// Workers 1, 2 and 8. Posterior sampling, the score scan and the outcome
// refits all spread over the pool, and none may leak into the result: the
// benefit history must match bit for bit, and so must the chosen decision,
// its measured outcomes and the profiling and comparison budgets spent.
func TestParallelSamplingDeterministicAcrossWorkerCounts(t *testing.T) {
	sys := testSys(5, 4, 66)
	truth := objective.UniformPreference()
	run := func(workers int) *Result {
		opt := smallOpts(12)
		opt.Workers = workers
		res, err := New(sys, &pref.Oracle{Pref: truth}, opt).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		res := run(workers)
		if len(res.History) != len(serial.History) {
			t.Fatalf("workers=%d: %d history entries, serial %d", workers, len(res.History), len(serial.History))
		}
		for i, z := range serial.History {
			if math.Float64bits(res.History[i]) != math.Float64bits(z) {
				t.Fatalf("workers=%d: History[%d] = %v, serial %v", workers, i, res.History[i], z)
			}
		}
		if !slices.Equal(res.Best.Decision.Configs, serial.Best.Decision.Configs) {
			t.Fatalf("workers=%d changed the decision: %+v vs %+v", workers, res.Best.Decision.Configs, serial.Best.Decision.Configs)
		}
		for i, v := range serial.Best.Raw {
			if math.Float64bits(res.Best.Raw[i]) != math.Float64bits(v) {
				t.Fatalf("workers=%d: Best.Raw %v, serial %v", workers, res.Best.Raw, serial.Best.Raw)
			}
		}
		if res.Profiles != serial.Profiles || res.PrefPairs != serial.PrefPairs || res.Iters != serial.Iters {
			t.Fatalf("workers=%d: profiles/pref pairs/iters %d/%d/%d, serial %d/%d/%d", workers,
				res.Profiles, res.PrefPairs, res.Iters, serial.Profiles, serial.PrefPairs, serial.Iters)
		}
	}
}

func TestStepKnobStaysOnGrid(t *testing.T) {
	sys := testSys(2, 2, 1)
	s := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, smallOpts(4))
	for i := 0; i < 200; i++ {
		v := stepKnob(videosim.Resolutions, videosim.Resolutions[s.rng.IntN(len(videosim.Resolutions))], s.rng)
		found := false
		for _, g := range videosim.Resolutions {
			if g == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("stepKnob left the grid: %v", v)
		}
	}
}
