package pamo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pref"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// Acquisition selects the acquisition function used by the solution phase.
type Acquisition string

// Supported acquisition functions (the paper's qNEI plus the ablation
// variants of Section 5.1).
const (
	QNEI Acquisition = "qnei"
	QEI  Acquisition = "qei"
	QUCB Acquisition = "qucb"
	QSR  Acquisition = "qsr"
)

// Options tunes the PaMO scheduler. Zero values select the paper's method —
// a learned preference with EUBO pair selection and qNEI — with budgets
// sized for its experiments (8 videos, 5 servers).
type Options struct {
	InitProfiles int // profiling configs per clip before the loop (default 24)
	InitObs      int // initial full-system observations (default 4)
	PrefPairs    int // V: decision-maker comparisons (default 18)
	PrefPool     int // candidate outcome vectors for EUBO pairs (default 24)
	Batch        int // b: candidates recommended per iteration (default 4)
	// MCSamples is the Monte-Carlo budget of the acquisition (default 32).
	// The solution phase draws 4×MCSamples joint posterior samples over the
	// candidate∪observation universe once per iteration and reuses them for
	// every greedy (slot, candidate) score. Sharing draws also acts as
	// common random numbers for the greedy argmax: competing candidates are
	// compared under identical noise, so their score *differences* have far
	// lower variance than independently re-sampled estimates of the same
	// budget.
	MCSamples int
	CandPool  int         // candidate configurations per iteration (default 20)
	MaxIter   int         // BO iteration cap (default 12)
	Delta     float64     // convergence threshold δ on benefit change (default 0.02)
	Acq       Acquisition // default QNEI
	// TruePref, when non-nil, selects PaMO+: candidates are scored with
	// this true preference function and no decision maker is asked. Nil
	// learns the preference from comparisons, choosing each pair after the
	// first by EUBO (Eq. 11).
	TruePref *objective.Preference
	// OptimizePrefHyper tunes the preference GP's kernel and probit scale
	// by Laplace evidence after the initial comparisons — worthwhile when
	// the hidden benefit has sharp non-linearities (SLA thresholds, tiered
	// tariffs) that the default long lengthscale smooths over.
	OptimizePrefHyper bool
	ProfilerNoise     float64
	// Measurer overrides where profiling measurements come from (e.g. a
	// trace.Replayer); nil selects the live noisy profiler.
	Measurer videosim.Measurer
	// Workers bounds the goroutines used for posterior sampling inside the
	// acquisition function (0 = GOMAXPROCS). Results are deterministic for
	// a given Seed regardless of the worker count.
	Workers int
	// Obs, when non-nil, receives phase spans ("profiling",
	// "outcome_model", "preference", "solution", plus one "iteration" span
	// per BO round), per-iteration acquisition events, and the pamo_*
	// metrics of the recorder's registry. Nil disables telemetry at
	// zero cost.
	Obs *obs.Recorder
	// Check, when non-nil, verifies correctness invariants as the run
	// proceeds: exact Const1/Const2 feasibility of every planned candidate,
	// deployed-decision feasibility under the TRUE processing times
	// (metric-only — model error there is expected and surfaced, not
	// fatal), finiteness of measured outcomes and benefits, and incumbent
	// monotonicity in the BO loop (strict only under TruePref; a learned
	// preference refresh legitimately rescales past benefits). A strict
	// checker turns planner-side violations into hard run errors.
	Check *check.Checker
	Seed  uint64
	// ServerMask restricts planning to the servers marked true (nil = all):
	// the fault-tolerant runtime sets it so replans after a crash land only
	// on survivors. Returned assignments still use the full physical server
	// index space.
	ServerMask []bool
}

// ucbBeta is the exploration weight of the QUCB acquisition.
const ucbBeta = 2.0

// drawsPerRound is the number of joint posterior draws per acquisition
// round.
func (o Options) drawsPerRound() int { return 4 * o.MCSamples }

// Validate rejects option values the scheduler cannot run with. Every
// violation is reported, in struct field order, inside one deterministic
// error — the old implementation ranged over a map[string]int, so which
// negative option it named depended on map iteration order and the same
// bad Options could produce different messages across runs.
func (o Options) Validate() error {
	var bad []string
	for _, f := range []struct {
		name string
		v    int
	}{
		{"InitProfiles", o.InitProfiles},
		{"InitObs", o.InitObs},
		{"PrefPairs", o.PrefPairs},
		{"PrefPool", o.PrefPool},
		{"Batch", o.Batch},
		{"MCSamples", o.MCSamples},
		{"CandPool", o.CandPool},
		{"MaxIter", o.MaxIter},
		{"Workers", o.Workers},
	} {
		if f.v < 0 {
			bad = append(bad, fmt.Sprintf("option %s is negative (%d)", f.name, f.v))
		}
	}
	if o.Delta < 0 {
		bad = append(bad, fmt.Sprintf("Delta is negative (%v)", o.Delta))
	}
	switch o.Acq {
	case "", QNEI, QEI, QUCB, QSR:
	default:
		bad = append(bad, fmt.Sprintf("unknown acquisition %q", o.Acq))
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("pamo: %s", strings.Join(bad, "; "))
}

func (o Options) withDefaults() Options {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&o.InitProfiles, 24)
	def(&o.InitObs, 4)
	def(&o.PrefPairs, 18)
	def(&o.PrefPool, 24)
	def(&o.Batch, 4)
	def(&o.MCSamples, 32)
	def(&o.CandPool, 20)
	def(&o.MaxIter, 12)
	if o.Delta == 0 {
		o.Delta = 0.02
	}
	if o.Acq == "" {
		o.Acq = QNEI
	}
	if o.ProfilerNoise == 0 {
		o.ProfilerNoise = 0.02
	}
	return o
}

// Observation is one evaluated full-system configuration.
type Observation struct {
	Decision eva.Decision
	Raw      objective.Vector // measured outcomes (DES latency)
	Norm     objective.Vector
	Benefit  float64 // benefit under the scheduler's current belief
}

// Result is the output of a PaMO run.
type Result struct {
	Best      Observation
	History   []float64 // best believed benefit after each iteration
	Iters     int
	Converged bool
	PrefPairs int // comparisons actually asked
	Profiles  int // profiling measurements taken
	// MVNFallbacks counts joint-posterior sampling calls during this run
	// that degraded to the deterministic mean because a covariance could
	// not be factorized (see gp.DrawMVN). Non-zero values mean part of
	// the acquisition ran without posterior uncertainty.
	MVNFallbacks uint64
}

// Scheduler is the PaMO scheduler instance.
type Scheduler struct {
	sys  *objective.System
	dm   pref.DecisionMaker
	opt  Options
	rng  *rand.Rand
	prof videosim.Measurer
	norm objective.Normalizer

	ctx context.Context // RunContext's cancellation, nil for plain Run
	// evctx is the innermost open span's context: phases and BO iterations
	// update it as their spans open and close so deeply nested emitters
	// (recordAcq, three frames below the iteration loop) attribute events
	// to the right span without threading a context through the acquisition
	// call chain. Schedulers run one RunContext at a time, so plain field
	// writes suffice.
	evctx context.Context

	clips          []*clipModels
	learner        *pref.Learner
	obs            []Observation
	profiles       int
	tournamentAsks int

	rec      *obs.Recorder
	met      schedMetrics
	acqRound uint64        // acquisition rounds run, keys per-round RNG streams
	draw     drawScratch   // SampleBenefit's reused memory
	eval     eva.Evaluator // scores every observed decision
	// mvn counts THIS scheduler's posterior-sampling fallbacks: it is
	// injected into every outcome GP and the preference model, so
	// concurrently running schedulers never cross-attribute each other's
	// degraded sampling.
	mvn atomic.Uint64
}

// New builds a PaMO scheduler for the system. dm answers pairwise
// comparisons; it is ignored when opt.TruePref is set (PaMO+) and
// required otherwise.
func New(sys *objective.System, dm pref.DecisionMaker, opt Options) *Scheduler {
	opt = opt.withDefaults()
	rng := stats.NewRNG(opt.Seed + 0x9A30)
	prof := opt.Measurer
	if prof == nil {
		prof = videosim.NewProfiler(opt.ProfilerNoise, stats.NewRNG(opt.Seed+0x70F1))
	}
	s := &Scheduler{
		sys:  sys,
		dm:   dm,
		opt:  opt,
		rng:  rng,
		prof: prof,
		norm: objective.NewNormalizer(sys),
		rec:  opt.Obs,
	}
	s.met = newSchedMetrics(opt.Obs.Registry())
	s.clips = make([]*clipModels, sys.M())
	sinks := s.modelSinks()
	for i := range s.clips {
		s.clips[i] = newClipModels(sinks)
	}
	if opt.TruePref == nil {
		s.learner = pref.NewLearner(dm, true, stats.NewRNG(opt.Seed+0xE0B0))
		s.learner.Model.SetFallbackCounter(&s.mvn)
	}
	return s
}

// modelSinks is where this scheduler's outcome models report.
func (s *Scheduler) modelSinks() modelSinks {
	return modelSinks{
		mvn:      &s.mvn,
		gpObs:    s.met.gpObs,
		cholInc:  s.met.cholInc,
		cholFull: s.met.cholFull,
		chk:      s.opt.Check,
	}
}

// Run executes Algorithm 2 end to end and returns the best decision found.
// With Options.Obs set, the four phases emit spans ("profiling",
// "outcome_model", "preference", "solution") and every BO round emits an
// "iteration" span plus an "acq" event carrying the greedy slot scores.
func (s *Scheduler) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx is checked between
// phases and before every BO iteration, so the fault-tolerant runtime's
// decide deadline aborts a replan at the next boundary instead of waiting
// out the whole loop.
func (s *Scheduler) RunContext(ctx context.Context) (*Result, error) {
	if err := s.opt.Validate(); err != nil {
		return nil, err
	}
	if s.dm == nil && s.opt.TruePref == nil {
		return nil, errors.New("pamo: no decision maker to learn the preference from (set TruePref for PaMO+)")
	}
	if s.opt.ServerMask != nil {
		if len(s.opt.ServerMask) != s.sys.N() {
			return nil, fmt.Errorf("pamo: server mask length %d for %d servers", len(s.opt.ServerMask), s.sys.N())
		}
		alive := 0
		for _, ok := range s.opt.ServerMask {
			if ok {
				alive++
			}
		}
		if alive == 0 {
			return nil, fmt.Errorf("%w: no healthy servers in mask", sched.ErrInfeasible)
		}
	}
	s.ctx = ctx
	s.evctx = ctx
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.profileInit(); err != nil {
		return nil, fmt.Errorf("pamo: outcome-model phase: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.preferencePhase(); err != nil {
		return nil, fmt.Errorf("pamo: preference phase: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.solutionPhase()
}

// preferencePhase wraps the preference-modeling phase in its span and
// reports the comparison/EUBO budget actually spent.
func (s *Scheduler) preferencePhase() error {
	var err error
	s.rec.Do(s.ctx, "preference", func(ctx context.Context) {
		_, sp := s.rec.StartSpanCtx(ctx, "preference")
		defer sp.End()
		if err = s.learnPreference(); err != nil {
			return
		}
		if s.learner != nil {
			sp.Field("comparisons", float64(s.learner.Model.NumComparisons()))
			sp.Field("eubo_queries", float64(s.learner.EUBOQueries))
			s.met.euboQueries.Add(uint64(s.learner.EUBOQueries))
			s.met.prefComps.Add(uint64(s.learner.Model.NumComparisons()))
		}
	})
	return err
}

// solutionPhase runs the BO loop (lines 12–21 of Algorithm 2) and the
// final tournament, assembling the Result.
func (s *Scheduler) solutionPhase() (*Result, error) {
	var res *Result
	var err error
	s.rec.Do(s.ctx, "solution", func(ctx context.Context) {
		res, err = s.solutionLoop(ctx)
	})
	return res, err
}

func (s *Scheduler) solutionLoop(ctx context.Context) (*Result, error) {
	sctx, sp := s.rec.StartSpanCtx(ctx, "solution")
	defer sp.End()
	s.evctx = sctx
	defer func() { s.evctx = s.ctx }()
	if err := s.initialObservations(); err != nil {
		return nil, fmt.Errorf("pamo: initial observations: %w", err)
	}

	res := &Result{}
	zPrev := math.Inf(-1)
	// The incumbent is strictly non-decreasing only when the benefit scale
	// is fixed (TruePref); a learned preference model refreshes between
	// iterations and may legitimately rescale every past benefit.
	guard := s.opt.Check.NewIncumbent(s.opt.TruePref != nil)
	for iter := 0; iter < s.opt.MaxIter; iter++ {
		if s.ctx != nil && s.ctx.Err() != nil {
			return nil, s.ctx.Err()
		}
		res.Iters = iter + 1
		s.met.iterations.Inc()
		ictx, iterSp := s.rec.StartSpanCtx(sctx, "iteration", obs.F("iter", float64(iter+1)))
		s.evctx = ictx
		cands := s.generateCandidates()
		if len(cands) == 0 {
			iterSp.End()
			s.evctx = sctx
			break
		}
		batch := s.selectBatch(cands)
		for _, c := range batch {
			if _, err := s.observe(c); err != nil {
				iterSp.End()
				return nil, err
			}
		}
		if err := s.refitClips(); err != nil {
			iterSp.End()
			return nil, err
		}
		s.refreshBenefits()
		z := s.bestObservation().Benefit
		if err := guard.Observe(z); err != nil {
			iterSp.End()
			return nil, fmt.Errorf("pamo: iteration %d: %w", iter+1, err)
		}
		res.History = append(res.History, z)
		s.met.bestBenefit.Set(z)
		iterSp.Field("candidates", float64(len(cands)))
		iterSp.Field("batch", float64(len(batch)))
		iterSp.Field("best_benefit", z)
		s.met.iterSeconds.Observe(iterSp.End())
		s.evctx = sctx
		if !math.IsInf(zPrev, -1) && math.Abs(z-zPrev) < s.opt.Delta {
			res.Converged = true
			zPrev = z
			break
		}
		zPrev = z
	}
	res.Best = s.bestObservation()
	// The learned utility is a smoothed surrogate; before committing, let
	// the decision maker pick directly among the top candidates (a few
	// extra comparisons, same interaction the loop already uses). This
	// protects the final answer against surrogate smoothing of sharp
	// pricing features like SLA thresholds.
	if s.learner != nil {
		res.Best = s.finalTournament(3)
	}
	res.Profiles = s.profiles
	res.MVNFallbacks = s.SamplingFallbacks()
	s.met.mvnFallbacks.Set(float64(res.MVNFallbacks))
	if s.learner != nil {
		res.PrefPairs = s.learner.Model.NumComparisons() + s.tournamentAsks
	}
	sp.Field("iters", float64(res.Iters))
	sp.Field("observations", float64(len(s.obs)))
	return res, nil
}

// finalTournament returns the winner of direct decision-maker comparisons
// among the top-k observations by believed benefit.
func (s *Scheduler) finalTournament(k int) Observation {
	idx := make([]int, len(s.obs))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection of the top k by believed benefit.
	if k > len(idx) {
		k = len(idx)
	}
	for a := 0; a < k; a++ {
		best := a
		for b := a + 1; b < len(idx); b++ {
			if s.obs[idx[b]].Benefit > s.obs[idx[best]].Benefit {
				best = b
			}
		}
		idx[a], idx[best] = idx[best], idx[a]
	}
	winner := idx[0]
	for _, ci := range idx[1:k] {
		s.tournamentAsks++
		s.met.prefComps.Inc()
		if s.dm.Prefer(s.obs[ci].Norm, s.obs[winner].Norm) {
			winner = ci
		}
	}
	return s.obs[winner]
}

// --- phase 1: outcome-model fitting -----------------------------------

func (s *Scheduler) profileInit() error {
	grid := eva.ConfigGrid()
	// Phase 1a: take every initial profiling measurement. Measurement and
	// fitting are split so each phase gets its own span and pprof label.
	s.rec.Do(s.ctx, "profiling", func(ctx context.Context) {
		_, sp := s.rec.StartSpanCtx(ctx, "profiling", obs.F("clips", float64(s.sys.M())))
		for ci, clip := range s.sys.Clips {
			// Latin-hypercube over the knob grid, snapped to grid points.
			pts := stats.LatinHypercube(s.opt.InitProfiles, 2, s.rng)
			for _, p := range pts {
				cfg := videosim.Config{
					Resolution: snap(videosim.Resolutions, p[0]),
					FPS:        snap(videosim.FrameRates, p[1]),
				}
				s.clips[ci].addMeasurement(cfg, s.prof.Measure(clip, cfg))
				s.countProfile()
			}
			// Always include the grid corners so bounds are anchored.
			for _, cfg := range []videosim.Config{grid[0], grid[len(grid)-1]} {
				s.clips[ci].addMeasurement(cfg, s.prof.Measure(clip, cfg))
				s.countProfile()
			}
		}
		sp.Field("profiles", float64(s.profiles))
		sp.End()
	})

	// Phase 1b: condition the outcome GPs on the profiling data.
	var err error
	s.rec.Do(s.ctx, "outcome_model", func(ctx context.Context) {
		_, fit := s.rec.StartSpanCtx(ctx, "outcome_model")
		defer fit.End()
		for _, c := range s.clips {
			// Size each factor once for the whole solve: the profiles, the
			// initial observations and one measurement per batch slot.
			c.model.Reserve(len(c.xs) + s.opt.InitObs + s.opt.MaxIter*s.opt.Batch)
		}
		err = s.refitClips()
	})
	return err
}

// countProfile tracks one profiling measurement in both the Result
// accounting and the metric registry.
func (s *Scheduler) countProfile() {
	s.profiles++
	s.met.profiles.Inc()
}

func snap(grid []float64, u float64) float64 {
	i := int(u * float64(len(grid)))
	if i >= len(grid) {
		i = len(grid) - 1
	}
	return grid[i]
}

// --- phase 2: preference modeling --------------------------------------

func (s *Scheduler) learnPreference() error {
	if s.opt.TruePref != nil {
		return nil
	}
	// Build a pool of predicted outcome vectors for the decision maker to
	// compare (Eq. 9 data): the corners of the configuration space first —
	// comparisons between Pareto extremes carry the most information about
	// which objectives the pricing actually rewards — then random feasible
	// configurations for interior coverage.
	var pool []objective.Vector
	for _, cfgs := range s.extremeConfigs() {
		if c, ok := s.plan(cfgs); ok {
			pool = append(pool, s.norm.Normalize(s.predictOutcomes(c)))
		}
	}
	for attempt := 0; attempt < s.opt.PrefPool*20 && len(pool) < s.opt.PrefPool; attempt++ {
		cfgs := s.randomConfigs()
		c, ok := s.plan(cfgs)
		if !ok {
			continue
		}
		pool = append(pool, s.norm.Normalize(s.predictOutcomes(c)))
	}
	if len(pool) < 2 {
		return fmt.Errorf("%w: no feasible configurations for preference pool", sched.ErrInfeasible)
	}
	if err := s.learner.Learn(pool, s.opt.PrefPairs); err != nil {
		return err
	}
	if s.opt.OptimizePrefHyper {
		return s.learner.Model.OptimizeHyperparams(2, s.rng)
	}
	return nil
}

// extremeConfigs returns uniform configurations spanning the knob-space
// corners, degrading the hot corners knob-by-knob until they schedule.
func (s *Scheduler) extremeConfigs() [][]videosim.Config {
	res := videosim.Resolutions
	fps := videosim.FrameRates
	corners := []videosim.Config{
		{Resolution: res[0], FPS: fps[0]},                   // cheapest
		{Resolution: res[len(res)-1], FPS: fps[len(fps)-1]}, // most accurate
		{Resolution: res[len(res)-1], FPS: fps[0]},          // sharp but slow
		{Resolution: res[0], FPS: fps[len(fps)-1]},          // fast but coarse
		{Resolution: res[len(res)/2], FPS: fps[len(fps)/2]}, // middle
	}
	var out [][]videosim.Config
	for _, corner := range corners {
		cfg := corner
		for step := 0; step < len(res)+len(fps); step++ {
			cfgs := make([]videosim.Config, s.sys.M())
			for i := range cfgs {
				cfgs[i] = cfg
			}
			if _, ok := s.plan(cfgs); ok {
				out = append(out, cfgs)
				break
			}
			// Degrade the heavier knob and retry.
			if i := knobIndex(fps, cfg.FPS); i > 0 {
				cfg.FPS = fps[i-1]
			} else if i := knobIndex(res, cfg.Resolution); i > 0 {
				cfg.Resolution = res[i-1]
			} else {
				break
			}
		}
	}
	return out
}

// --- candidates and planning -------------------------------------------

// candidate is a configuration with its Algorithm 1 plan under the current
// outcome models.
type candidate struct {
	cfgs    []videosim.Config
	streams []sched.Stream // model-estimated, post-split
	plan    sched.Plan
}

// plan runs Algorithm 1 with model-estimated processing times; ok=false
// when no zero-jitter grouping exists.
func (s *Scheduler) plan(cfgs []videosim.Config) (candidate, bool) {
	streams := make([]sched.Stream, s.sys.M())
	for i := range s.sys.Clips {
		mu := s.clips[i].means(cfgs[i])
		proc := math.Max(1e-4, mu[mProc])
		bits := math.Max(1, mu[mBits])
		streams[i] = eva.NewStream(i, cfgs[i], proc, bits)
	}
	split := sched.SplitHighRate(streams)
	plan, err := sched.ScheduleMasked(split, s.sys.Servers, s.opt.ServerMask)
	if err != nil {
		return candidate{}, false
	}
	return candidate{cfgs: cfgs, streams: split, plan: plan}, true
}

func (s *Scheduler) randomConfigs() []videosim.Config {
	cfgs := make([]videosim.Config, s.sys.M())
	for i := range cfgs {
		cfgs[i] = videosim.Config{
			Resolution: videosim.Resolutions[s.rng.IntN(len(videosim.Resolutions))],
			FPS:        videosim.FrameRates[s.rng.IntN(len(videosim.FrameRates))],
		}
	}
	return cfgs
}

// mutateConfigs perturbs 1–2 stream knobs of base by one grid step each:
// the frame rate one time in three, the resolution otherwise.
func (s *Scheduler) mutateConfigs(base []videosim.Config) []videosim.Config {
	cfgs := append([]videosim.Config(nil), base...)
	for k := 0; k < 1+s.rng.IntN(2); k++ {
		i := s.rng.IntN(len(cfgs))
		if s.rng.IntN(3) == 1 {
			cfgs[i].FPS = stepKnob(videosim.FrameRates, cfgs[i].FPS, s.rng)
		} else {
			cfgs[i].Resolution = stepKnob(videosim.Resolutions, cfgs[i].Resolution, s.rng)
		}
	}
	return cfgs
}

// knobIndex returns the grid index of v, or 0 when off-grid.
func knobIndex(grid []float64, v float64) int {
	for i, g := range grid {
		if g == v {
			return i
		}
	}
	return 0
}

func stepKnob(grid []float64, cur float64, rng *rand.Rand) float64 {
	idx := knobIndex(grid, cur)
	if rng.IntN(2) == 0 {
		idx--
	} else {
		idx++
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(grid) {
		idx = len(grid) - 1
	}
	return grid[idx]
}

func (s *Scheduler) generateCandidates() []candidate {
	var out []candidate
	seen := map[string]bool{}
	add := func(cfgs []videosim.Config) {
		key := cfgKey(cfgs)
		if seen[key] {
			return
		}
		if c, ok := s.plan(cfgs); ok {
			seen[key] = true
			out = append(out, c)
		}
	}
	best := s.bestObservation()
	// Half exploit: mutations of the incumbent; half explore: random.
	for attempt := 0; attempt < s.opt.CandPool*10 && len(out) < s.opt.CandPool/2; attempt++ {
		if len(best.Decision.Configs) > 0 {
			add(s.mutateConfigs(best.Decision.Configs))
		} else {
			break
		}
	}
	for attempt := 0; attempt < s.opt.CandPool*20 && len(out) < s.opt.CandPool; attempt++ {
		add(s.randomConfigs())
	}
	return out
}

func cfgKey(cfgs []videosim.Config) string {
	key := make([]byte, 0, len(cfgs)*8)
	for _, c := range cfgs {
		key = append(key, []byte(fmt.Sprintf("%g,%g;", c.Resolution, c.FPS))...)
	}
	return string(key)
}

// predictOutcomes composes the posterior-mean outcome vector of a planned
// candidate (Eqs. 2–5 with model means and the plan's assignment).
func (s *Scheduler) predictOutcomes(c candidate) objective.Vector {
	var v objective.Vector
	m := float64(s.sys.M())
	mus := make([][numMetrics]float64, s.sys.M())
	for i := range s.sys.Clips {
		cfg := c.cfgs[i]
		mu := s.clips[i].means(cfg)
		mus[i] = mu
		v[objective.Accuracy] += clamp01(mu[mAcc]) / m
		v[objective.Network] += math.Max(0, mu[mBits]) * cfg.FPS
		v[objective.Compute] += math.Max(0, mu[mComp])
		v[objective.Energy] += math.Max(0, mu[mPow])
	}
	var lat float64
	for k, st := range c.streams {
		b := s.sys.Servers[c.plan.StreamServer[k]].Uplink
		proc := math.Max(0, mus[st.Video][mProc])
		bits := math.Max(0, mus[st.Video][mBits])
		tx := 0.0
		if b > 0 {
			tx = bits / b
		}
		lat += proc + tx
	}
	if len(c.streams) > 0 {
		v[objective.Latency] = lat / float64(len(c.streams))
	}
	return v
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
