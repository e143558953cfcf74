package pamo

import (
	"fmt"
	"math"
	"math/rand/v2"
	goruntime "runtime"
	"slices"
	"sync"

	"repro/internal/acq"
	"repro/internal/eva"
	"repro/internal/mat"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// acqStream derives the two PCG seed words for acquisition round round
// under seed. Both words pass through stats.SplitMix64, a 64-bit bijection,
// so the pair is unique for every distinct (seed, round): the first word
// separates seeds, the second separates rounds within a seed. No two
// rounds — of this run or of a run with any other seed — can ever replay
// the same stream, unlike the old Seed^(len(obs)·GOLDEN) derivation.
func acqStream(seed, round uint64) (uint64, uint64) {
	return stats.SplitMix64(seed), stats.SplitMix64(seed + round + 1)
}

// benefitSampler adapts the composed model (per-clip outcome GPs →
// normalized outcome vector → preference GP) into the acq.Sampler
// interface. Points are opaque handles (indices into cands) rather than
// coordinates, because the sampler needs each candidate's plan.
type benefitSampler struct {
	s     *Scheduler
	cands []candidate // the candidate universe this sampler covers
}

// handles returns the sampler handles of candidates 0, …, n-1 — candidate
// i as the 1-vector {i}, so it fits acq.Sampler — out of one allocation.
func handles(n int) [][]float64 {
	block := make([]float64, n)
	pts := make([][]float64, n)
	for i := range pts {
		block[i] = float64(i)
		pts[i] = block[i : i+1 : i+1]
	}
	return pts
}

// drawScratch is SampleBenefit's working memory. A scheduler samples one
// batch at a time and nothing SampleBenefit returns aliases it, so every
// call overwrites the previous call's contents and reuses its capacity.
type drawScratch struct {
	idx     []int
	cfgs    []videosim.Config         // [clip·q + point]: each clip's query configs
	draws   [][numMetrics][][]float64 // [clip][metric][sample][point]
	rows    [][]float64               // the sample rows of draws, in one block
	block   []float64
	samples []objective.Vector // [sample·q + point]: composed raw outcomes
	ys      [][]float64        // per preference worker, q normalized outcomes
	yblock  []float64
}

// grow returns s resized to n, reusing its capacity; contents are stale.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// size shapes the scratch for m clips, nSamples draws at q points and
// workers preference workers.
func (d *drawScratch) size(m, nSamples, q, workers int) {
	d.idx = grow(d.idx, q)
	d.cfgs = grow(d.cfgs, m*q)
	nRows := m * int(numMetrics) * nSamples
	d.block = grow(d.block, nRows*q)
	d.rows = grow(d.rows, nRows)
	for r := range d.rows {
		d.rows[r] = d.block[r*q : (r+1)*q : (r+1)*q]
	}
	d.draws = grow(d.draws, m)
	for ci := range d.draws {
		for mi := range d.draws[ci] {
			r := (ci*int(numMetrics) + mi) * nSamples
			d.draws[ci][mi] = d.rows[r : r+nSamples : r+nSamples]
		}
	}
	d.samples = grow(d.samples, nSamples*q)
	d.yblock = grow(d.yblock, workers*q*objective.K)
	d.ys = grow(d.ys, workers*q)
	for j := range d.ys {
		d.ys[j] = d.yblock[j*objective.K : (j+1)*objective.K : (j+1)*objective.K]
	}
}

// SampleBenefit draws nSamples joint samples of the believed benefit
// z = g(f(x)) at the referenced candidates, propagating both outcome-GP
// and preference-GP uncertainty (the integrand of Eq. 12). Only the
// returned rows are allocated per call: the outcome draws and every
// intermediate live in the scheduler's drawScratch and pooled workspaces.
func (bs *benefitSampler) SampleBenefit(points [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	q := len(points)
	m := bs.s.sys.M()
	prefWorkers := min(bs.s.workers(), nSamples)
	sc := &bs.s.draw
	sc.size(m, nSamples, q, prefWorkers)
	idx := sc.idx
	for i, p := range points {
		idx[i] = int(p[0])
	}
	// Per-clip joint draws across the candidate points. The M clips are
	// independent — the paper's batch recommendation exists precisely so
	// observations can proceed in parallel — so fan them out over workers.
	// Each clip draws its five metrics off one posterior factor (see
	// clipModels.sampleJoint), metric mi from an RNG derived from (base
	// seed, clip, metric), which keeps results identical regardless of
	// goroutine scheduling and of how the metrics are grouped into tasks.
	draws := sc.draws // [clip][metric][sample][point]
	seedBase := rng.Uint64()
	bs.s.parallel(m, func(ci int) {
		cfgs := sc.cfgs[ci*q : (ci+1)*q]
		for j, cand := range idx {
			cfgs[j] = bs.cands[cand].cfgs[ci]
		}
		bs.s.clips[ci].sampleJoint(cfgs, draws[ci], seedBase, uint64(ci)*uint64(numMetrics)+1)
	})
	// Compose raw outcome vectors per sample per point.
	samples := sc.samples // [sample·q + point]raw outcome
	for si := 0; si < nSamples; si++ {
		for j, cand := range idx {
			c := &bs.cands[cand]
			var v objective.Vector
			for ci := 0; ci < m; ci++ {
				d := &draws[ci]
				v[objective.Accuracy] += clamp01(d[mAcc][si][j]) / float64(m)
				v[objective.Network] += math.Max(0, d[mBits][si][j]) * c.cfgs[ci].FPS
				v[objective.Compute] += math.Max(0, d[mComp][si][j])
				v[objective.Energy] += math.Max(0, d[mPow][si][j])
			}
			var lat float64
			for k, st := range c.streams {
				b := bs.s.sys.Servers[c.plan.StreamServer[k]].Uplink
				tx := 0.0
				if b > 0 {
					tx = math.Max(0, draws[st.Video][mBits][si][j]) / b
				}
				lat += math.Max(0, draws[st.Video][mProc][si][j]) + tx
			}
			if len(c.streams) > 0 {
				v[objective.Latency] = lat / float64(len(c.streams))
			}
			samples[si*q+j] = v
		}
	}
	// Map through the (learned or true) preference to benefit samples. Each
	// outcome sample needs its own preference-posterior draw at q points —
	// O(q³)-ish work that dominates when the shared-sample path covers a
	// large universe — so deal the samples out over a fixed set of workers,
	// each with its own workspace and query buffer. Sample si draws from
	// its own PCG stream (prefSeed, si), so results do not depend on which
	// worker takes it.
	out := make([][]float64, nSamples)
	block := make([]float64, nSamples*q)
	for si := range out {
		out[si] = block[si*q : (si+1)*q : (si+1)*q]
	}
	prefSeed := rng.Uint64()
	var wg sync.WaitGroup
	for w := 0; w < prefWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bs.prefDraws(out, samples, sc.ys[w*q:(w+1)*q], prefSeed, w, prefWorkers)
		}(w)
	}
	wg.Wait()
	return out
}

// prefDraws maps samples w, w+stride, … of the composed outcomes (q per
// sample) to benefit rows of out: through the true preference for PaMO+,
// otherwise by one preference-posterior draw per sample. ys is this
// worker's query buffer.
func (bs *benefitSampler) prefDraws(out [][]float64, samples []objective.Vector, ys [][]float64, prefSeed uint64, w, stride int) {
	q := len(ys)
	if truth := bs.s.opt.TruePref; truth != nil {
		for si := w; si < len(out); si += stride {
			for j := range out[si] {
				out[si][j] = truth.Benefit(bs.s.norm.Normalize(samples[si*q+j]))
			}
		}
		return
	}
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	var pcg rand.PCG
	rng := rand.New(&pcg)
	for si := w; si < len(out); si += stride {
		for j, y := range ys {
			v := bs.s.norm.Normalize(samples[si*q+j])
			copy(y, v[:])
		}
		pcg.Seed(prefSeed, uint64(si))
		ws.Reset()
		bs.s.learner.Model.SampleWith(ws, ys, out[si:si+1], rng)
	}
}

// selectBatch implements line 15 of Algorithm 2: greedy sequential batch
// construction under the configured acquisition function.
//
// It samples the joint posterior over the full candidate ∪ observation
// universe once and scores every trial batch as a column-max over the shared
// draws (acq.SharedScorer): the marginals of a joint MVN restricted to a
// subset match sampling the subset directly, so the scores are statistically
// equivalent to re-sampling per trial batch (acq.QNEI/QEI/QSR/QUCB, the
// oracle FuzzSharedVsPerTrial holds the scorer to) at a tiny fraction of
// that path's O(b·CandPool) GP sampling passes.
func (s *Scheduler) selectBatch(cands []candidate) []candidate {
	b := s.opt.Batch
	if b > len(cands) {
		b = len(cands)
	}
	// The sampler's universe covers candidates plus the observed points so
	// qNEI can sample the noisy incumbent jointly.
	universe := append([]candidate(nil), cands...)
	obsStart := len(universe)
	for _, o := range s.obs {
		universe = append(universe, s.observationCandidate(o))
	}
	bs := &benefitSampler{s: s, cands: universe}
	pts := handles(len(universe))
	// One sampling pass feeds the whole greedy construction. Each
	// acquisition round owns a collision-free PCG stream (see acqStream):
	// the old derivation Seed^(len(obs)·GOLDEN) aliased across runs — e.g.
	// Seed=0 at 0 observations and Seed=GOLDEN at 1 observation XORed to
	// the very same stream, replaying identical acquisition noise.
	round := s.acqRound
	s.acqRound++
	rng := rand.New(rand.NewPCG(acqStream(s.opt.Seed, round)))
	z := bs.SampleBenefit(pts, s.opt.drawsPerRound(), rng)

	var scorer *acq.SharedScorer
	switch s.opt.Acq {
	case QEI:
		incumbent := math.Inf(-1)
		for _, o := range s.obs {
			if o.Benefit > incumbent {
				incumbent = o.Benefit
			}
		}
		scorer = acq.NewSharedQEI(z, incumbent)
	case QUCB:
		scorer = acq.NewSharedQUCB(z, ucbBeta)
	case QSR:
		scorer = acq.NewSharedQSR(z)
	default:
		obsCols := make([]int, len(s.obs))
		for i := range obsCols {
			obsCols[i] = obsStart + i
		}
		scorer = acq.NewSharedQNEI(z, obsCols)
	}

	chosen := make([]int, 0, b)
	chosenScores := make([]float64, 0, b)
	inBatch := make([]bool, len(cands))
	scores := make([]float64, len(cands))
	for len(chosen) < b {
		// SharedScorer.Score is pure given the draws, so the parallel scan
		// is deterministic for any worker count.
		s.scanScores(scores, inBatch, scorer.Score)
		bestIdx := argmaxAvailable(scores, inBatch)
		if bestIdx < 0 {
			break
		}
		scorer.Add(bestIdx)
		inBatch[bestIdx] = true
		chosen = append(chosen, bestIdx)
		chosenScores = append(chosenScores, scores[bestIdx])
	}
	s.recordAcq(len(universe), chosenScores)
	out := make([]candidate, len(chosen))
	for i, ci := range chosen {
		out[i] = cands[ci]
	}
	return out
}

// scanScores evaluates score(ci) for every candidate not yet in the batch
// across the configured worker pool, writing results into scores. The score
// function must be deterministic per candidate and safe for concurrent use;
// the scan result is then identical for every worker count.
func (s *Scheduler) scanScores(scores []float64, inBatch []bool, score func(ci int) float64) {
	s.parallel(len(scores), func(ci int) {
		if !inBatch[ci] {
			scores[ci] = score(ci)
		}
	})
}

// workers is the size of the scheduler's worker pool: Options.Workers, or
// GOMAXPROCS when that is zero.
func (s *Scheduler) workers() int {
	if s.opt.Workers > 0 {
		return s.opt.Workers
	}
	return goruntime.GOMAXPROCS(0)
}

// parallel runs f(0), …, f(n-1) over the worker pool, worker w taking w,
// w+workers, …; one worker runs them in order on the calling goroutine.
// The calls must touch disjoint state, so the outcome does not depend on
// the worker count. With several workers the caller only waits: running
// worker 0's share on it instead left the other worker's goroutine queued
// behind it and made dense_day's replan_p50_ms 14 % slower on a 2-core
// host.
func (s *Scheduler) parallel(n int, f func(i int)) {
	workers := max(1, min(s.workers(), n))
	run := func(w int) {
		for i := w; i < n; i += workers {
			f(i)
		}
	}
	if workers == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	wg.Wait()
}

// argmaxAvailable returns the index of the highest score among candidates
// not yet in the batch, breaking ties toward the lowest index (matching the
// serial scan's first-wins behavior), or -1 when none is available.
func argmaxAvailable(scores []float64, inBatch []bool) int {
	bestIdx, bestVal := -1, math.Inf(-1)
	for ci, v := range scores {
		if !inBatch[ci] && v > bestVal {
			bestVal, bestIdx = v, ci
		}
	}
	return bestIdx
}

// observationCandidate rebuilds a candidate view of a past observation so
// the sampler can re-sample its benefit jointly with new candidates.
func (s *Scheduler) observationCandidate(o Observation) candidate {
	return candidate{
		cfgs:    o.Decision.Configs,
		streams: o.Decision.Streams,
		plan:    sched.Plan{StreamServer: o.Decision.Assign},
	}
}

// --- observation --------------------------------------------------------

// observe deploys a candidate: physics (ground truth + DES latency)
// happens, the profiler records fresh per-clip samples, and the preference
// model gains one comparison against the incumbent. The outcome models are
// not re-conditioned here: the caller runs refitClips before anything
// reads them again.
func (s *Scheduler) observe(c candidate) (Observation, error) {
	// Every decision the scheduler emits must satisfy the exact feasibility
	// constraints under the processing times it was PLANNED with; a failure
	// here is an Algorithm 1 bug, so it is a hard error under -strict.
	if err := s.opt.Check.VerifyAssignmentServers(c.streams, c.plan.StreamServer, s.sys.Servers); err != nil {
		return Observation{}, fmt.Errorf("pamo: planned decision: %w", err)
	}
	// The deployed streams keep the plan's periods/splitting but the
	// true processing times and frame sizes apply.
	streams := eva.Recost(nil, s.sys, c.streams, c.cfgs)
	dec := eva.ZeroJitterDecision(c.cfgs, streams, c.plan, s.sys.Servers)
	// The same decision under TRUE processing times: a violation here is
	// model error (estimated p below truth), which is an expected operating
	// condition to surface in check_* metrics, never a hard failure.
	s.opt.Check.Relaxed().VerifyDecisionServers(dec, s.sys.Servers)
	raw := s.eval.Evaluate(s.sys, dec)
	norm := s.norm.Normalize(raw)
	if err := s.opt.Check.Finite("measured_outcomes", raw.Slice()...); err != nil {
		return Observation{}, fmt.Errorf("pamo: deployed decision: %w", err)
	}
	ob := Observation{Decision: dec, Raw: raw, Norm: norm}

	// Record fresh profiling at the deployed configs.
	for i, clip := range s.sys.Clips {
		s.clips[i].addMeasurement(c.cfgs[i], s.prof.Measure(clip, c.cfgs[i]))
		s.countProfile()
	}

	// Update the preference model with one more comparison (line 19).
	if s.learner != nil && len(s.obs) > 0 {
		best := s.bestObservation()
		i := s.learner.Model.AddPoint(norm.Slice())
		j := s.learner.Model.AddPoint(best.Norm.Slice())
		if i != j {
			var err error
			if s.dm.Prefer(norm, best.Norm) {
				err = s.learner.Model.AddComparison(i, j)
			} else {
				err = s.learner.Model.AddComparison(j, i)
			}
			if err == nil {
				s.met.prefComps.Inc()
				if err := s.learner.Model.Fit(); err != nil {
					return ob, err
				}
			}
		}
	}

	ob.Benefit = s.believedBenefit(norm)
	if err := s.opt.Check.Finite("believed_benefit", ob.Benefit); err != nil {
		return ob, fmt.Errorf("pamo: believed benefit: %w", err)
	}
	s.obs = append(s.obs, ob)
	s.met.observations.Inc()
	return ob, nil
}

// refitClips re-conditions every clip's outcome models on the measurements
// recorded since their last refit, the clips spread over the worker pool,
// and returns the first error in clip order. Conditioning once per batch
// leaves every model exactly as a refit after each observation would:
// Append of k points is k extensions (or refactorizations) followed by one
// solve, solve reads only the factor and the targets, and nothing between
// two observations of a batch reads an outcome model.
func (s *Scheduler) refitClips() error {
	errs := make([]error, len(s.clips))
	s.parallel(len(s.clips), func(ci int) { errs[ci] = s.clips[ci].refit() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// believedBenefit scores a normalized outcome under the scheduler's
// current belief: the learned preference model's posterior mean, or the
// true preference for PaMO+.
func (s *Scheduler) believedBenefit(norm objective.Vector) float64 {
	if s.opt.TruePref != nil {
		return s.opt.TruePref.Benefit(norm)
	}
	mu, _ := s.learner.Model.PredictOne(norm.Slice())
	return mu
}

// refreshBenefits rescores every observation under the latest preference
// model (the learned utility scale drifts as comparisons accumulate).
func (s *Scheduler) refreshBenefits() {
	for i := range s.obs {
		s.obs[i].Benefit = s.believedBenefit(s.obs[i].Norm)
	}
}

func (s *Scheduler) bestObservation() Observation {
	var best Observation
	bestZ := math.Inf(-1)
	for _, o := range s.obs {
		if o.Benefit > bestZ {
			bestZ = o.Benefit
			best = o
		}
	}
	return best
}

// initialObservations seeds the BO loop with a few evaluated random
// feasible configurations so qNEI has a noisy incumbent to improve on.
func (s *Scheduler) initialObservations() error {
	tried := 0
	for len(s.obs) < s.opt.InitObs && tried < s.opt.InitObs*40 {
		tried++
		c, ok := s.plan(s.randomConfigs())
		if !ok {
			continue
		}
		if _, err := s.observe(c); err != nil {
			return err
		}
		// The next plan reads the model means.
		if err := s.refitClips(); err != nil {
			return err
		}
	}
	if len(s.obs) == 0 {
		return errNoFeasible
	}
	s.refreshBenefits()
	return nil
}

var errNoFeasible = errNoFeasibleT{}

type errNoFeasibleT struct{}

func (errNoFeasibleT) Error() string {
	return "pamo: no feasible zero-jitter configuration found for this system"
}

// Unwrap ties the failure to sched.ErrInfeasible so the fault-tolerant
// runtime can recognize it and fall back to the degradation policy.
func (errNoFeasibleT) Unwrap() error { return sched.ErrInfeasible }
