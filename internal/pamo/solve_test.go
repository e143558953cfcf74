package pamo

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/acq"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pref"
	"repro/internal/videosim"
)

// readyScheduler builds a scheduler and runs it up to the start of the BO
// loop (outcome models fitted, preference learned, initial observations
// taken), so selectBatch can be exercised directly.
func readyScheduler(tb testing.TB, m, n int, opt Options) *Scheduler {
	tb.Helper()
	sys := testSys(m, n, 7)
	s := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, opt)
	s.ctx, s.evctx = context.Background(), context.Background()
	if err := s.profileInit(); err != nil {
		tb.Fatal(err)
	}
	if err := s.learnPreference(); err != nil {
		tb.Fatal(err)
	}
	if err := s.initialObservations(); err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestSharedQNEIAgreesWithPerTrialOnFittedModel(t *testing.T) {
	// Acceptance check for the shared-sample path: on a fixed fitted model,
	// the shared-draw qNEI estimate of a trial batch must agree with the
	// per-trial oracle (acq.QNEI re-sampling the batch) within Monte-Carlo
	// error.
	s := readyScheduler(t, 4, 3, smallOpts(5))
	cands := s.generateCandidates()
	if len(cands) < 3 {
		t.Skipf("only %d candidates", len(cands))
	}

	universe := append([]candidate(nil), cands...)
	obsStart := len(universe)
	for _, o := range s.obs {
		universe = append(universe, s.observationCandidate(o))
	}
	bs := &benefitSampler{s: s, cands: universe}
	pts := handles(len(universe))
	obsPts := make([][]float64, 0, len(s.obs))
	obsCols := make([]int, 0, len(s.obs))
	for i := range s.obs {
		obsPts = append(obsPts, pts[obsStart+i])
		obsCols = append(obsCols, obsStart+i)
	}

	const nSamples = 4000
	trialCols := []int{0, 2}
	trial := [][]float64{pts[0], pts[2]}
	perTrial := acq.QNEI(bs, trial, obsPts, nSamples, rand.New(rand.NewPCG(1, 2)))

	z := bs.SampleBenefit(pts, nSamples, rand.New(rand.NewPCG(3, 4)))
	scorer := acq.NewSharedQNEI(z, obsCols)
	scorer.Add(trialCols[0])
	shared := scorer.Score(trialCols[1])

	// Monte-Carlo error of each estimate is O(1/√nSamples); the benefit
	// scale here is O(1), so 3σ-ish tolerance ≈ 0.05 at 4000 samples.
	if math.Abs(perTrial-shared) > 0.05*math.Max(1, math.Abs(perTrial)) {
		t.Fatalf("per-trial qNEI %v vs shared %v", perTrial, shared)
	}
}

func TestSelectBatchSharedAndPerTrialPickPlausibleBatches(t *testing.T) {
	// selectBatch must return a batch of distinct candidates of the
	// configured size.
	s := readyScheduler(t, 4, 3, smallOpts(6))
	cands := s.generateCandidates()
	if len(cands) < int(s.opt.Batch) {
		t.Skipf("only %d candidates", len(cands))
	}
	batch := s.selectBatch(cands)
	if len(batch) != s.opt.Batch {
		t.Fatalf("batch size %d, want %d", len(batch), s.opt.Batch)
	}
	seen := map[string]bool{}
	for _, c := range batch {
		key := cfgKey(c.cfgs)
		if seen[key] {
			t.Fatalf("duplicate candidate in batch: %s", key)
		}
		seen[key] = true
	}
}

func TestSelectBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	// The parallel greedy scan must not let goroutine scheduling leak into
	// the selection.
	pick := func(workers int) [][]videosim.Config {
		s := readyScheduler(t, 4, 3, smallOpts(9))
		s.opt.Workers = workers
		cands := s.generateCandidates()
		var out [][]videosim.Config
		for _, c := range s.selectBatch(cands) {
			out = append(out, c.cfgs)
		}
		return out
	}
	serial := pick(1)
	parallel := pick(8)
	if len(serial) != len(parallel) {
		t.Fatalf("batch sizes %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("workers changed slot %d: %+v vs %+v", i, serial[i], parallel[i])
			}
		}
	}
}

func TestRefitIncrementalMatchesFullFit(t *testing.T) {
	// The incremental per-observation refit path must condition every
	// metric's column on exactly the same posterior as a from-scratch fit of
	// the same data.
	rng := rand.New(rand.NewPCG(5, 6))
	inc := newClipModels(modelSinks{})
	full := newClipModels(modelSinks{})
	addBoth := func(cfg videosim.Config, y float64) {
		o := videosim.Measurement{Acc: y, ProcTime: 2*y + 1, Bits: y * y, Compute: -y, Power: 3}
		inc.addMeasurement(cfg, o)
		full.addMeasurement(cfg, o)
	}
	cfgAt := func(i int) videosim.Config {
		return videosim.Config{
			Resolution: videosim.Resolutions[i%len(videosim.Resolutions)],
			FPS:        videosim.FrameRates[(i/2)%len(videosim.FrameRates)],
		}
	}
	// Bulk phase (like profileInit), one refit.
	for i := 0; i < 10; i++ {
		addBoth(cfgAt(i), rng.NormFloat64()+2)
	}
	if err := inc.refit(); err != nil {
		t.Fatal(err)
	}
	// Streaming phase (like observe): inc refits after every point, full is
	// refitted from scratch once at the end.
	for i := 10; i < 25; i++ {
		addBoth(cfgAt(i), rng.NormFloat64()+2)
		if err := inc.refit(); err != nil {
			t.Fatalf("incremental refit %d: %v", i, err)
		}
	}
	var scaled [numMetrics][]float64
	for mi, ys := range full.ys {
		for _, y := range ys {
			scaled[mi] = append(scaled[mi], y/inc.scale[mi])
		}
	}
	if err := full.model.Fit(full.xs, scaled[:]); err != nil {
		t.Fatal(err)
	}
	var mi, mf [numMetrics]float64
	for i := 0; i < 12; i++ {
		cfg := videosim.Config{
			Resolution: videosim.Resolutions[rng.IntN(len(videosim.Resolutions))],
			FPS:        videosim.FrameRates[rng.IntN(len(videosim.FrameRates))],
		}
		x := EncodeConfig(cfg)
		vi := inc.model.Predict(x, mi[:])
		vf := full.model.Predict(x, mf[:])
		for m := range mi {
			if math.Abs(mi[m]-mf[m]) > 1e-7 || math.Abs(vi-vf) > 1e-7 {
				t.Fatalf("cfg %+v metric %d: incremental (%v, %v) vs full (%v, %v)", cfg, m, mi[m], vi, mf[m], vf)
			}
		}
	}
}

func TestSamplingFallbacksVisible(t *testing.T) {
	sys := testSys(3, 3, 52)
	s := New(sys, &pref.Oracle{Pref: objective.UniformPreference()}, smallOpts(11))
	if got := s.SamplingFallbacks(); got != 0 {
		t.Fatalf("fallbacks before run: %d", got)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MVNFallbacks != s.SamplingFallbacks() {
		t.Fatalf("Result.MVNFallbacks %d vs scheduler %d", res.MVNFallbacks, s.SamplingFallbacks())
	}
}

// TestBatchRefitMatchesPerObservationRefit pins the one-refit-per-batch
// schedule: a scheduler that observes a whole batch and then runs
// refitClips once must hold every clip's outcome model exactly as a twin
// that refits after every observe. The models are compared whole
// (reflect.DeepEqual reaches the targets, means, alphas, the factor and
// its generation), their means and variances on a probe grid bit for bit,
// and so are the refit counters.
func TestBatchRefitMatchesPerObservationRefit(t *testing.T) {
	twin := func() (*Scheduler, *obs.Recorder) {
		opt := smallOpts(17)
		opt.Batch = 4
		opt.Obs = obs.NewRecorder(nil)
		return readyScheduler(t, 4, 3, opt), opt.Obs
	}
	batched, recB := twin()
	single, recS := twin()
	for round := 0; round < 3; round++ {
		cb, cs := batched.generateCandidates(), single.generateCandidates()
		if len(cb) == 0 {
			t.Skip("no candidates")
		}
		bb, bs := batched.selectBatch(cb), single.selectBatch(cs)
		if len(bb) != len(bs) || len(bb) < 2 {
			t.Fatalf("round %d: batches of %d and %d candidates", round, len(bb), len(bs))
		}
		for i := range bb {
			if _, err := batched.observe(bb[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := single.observe(bs[i]); err != nil {
				t.Fatal(err)
			}
			if err := single.refitClips(); err != nil {
				t.Fatal(err)
			}
		}
		if err := batched.refitClips(); err != nil {
			t.Fatal(err)
		}
		for ci := range batched.clips {
			a, b := batched.clips[ci], single.clips[ci]
			if !reflect.DeepEqual(a.model, b.model) || a.scale != b.scale {
				t.Fatalf("round %d clip %d: batch-refit model differs from the per-observation twin", round, ci)
			}
			var ma, mb [numMetrics]float64
			for _, r := range videosim.Resolutions {
				for _, f := range videosim.FrameRates {
					cfg := videosim.Config{Resolution: r, FPS: f}
					x := EncodeConfig(cfg)
					va, vb := a.model.Predict(x, ma[:]), b.model.Predict(x, mb[:])
					if math.Float64bits(va) != math.Float64bits(vb) {
						t.Fatalf("round %d clip %d %+v: variance %v vs %v", round, ci, cfg, va, vb)
					}
					pa, pb := a.means(cfg), b.means(cfg)
					for mi := range pa {
						if math.Float64bits(pa[mi]) != math.Float64bits(pb[mi]) || math.Float64bits(ma[mi]) != math.Float64bits(mb[mi]) {
							t.Fatalf("round %d clip %d %+v metric %d: means %v/%v vs %v/%v", round, ci, cfg, mi, pa[mi], ma[mi], pb[mi], mb[mi])
						}
					}
				}
			}
		}
	}
	cb, cs := recB.Registry().Snapshot().Counters, recS.Registry().Snapshot().Counters
	for _, name := range []string{"gp_obs_total", "pamo_chol_incremental_total", "pamo_chol_refactorize_total", "pamo_profiles_total"} {
		if cb[name] != cs[name] {
			t.Errorf("%s: batched %d, per observation %d", name, cb[name], cs[name])
		}
	}
	if cb["pamo_chol_incremental_total"] == 0 {
		t.Error("no incremental extension ran")
	}
}
