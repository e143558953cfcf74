package pamo

import (
	"fmt"
	"math"
	"math/rand/v2"
	goruntime "runtime"
	"sync"

	"repro/internal/acq"
	"repro/internal/eva"
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

// point encodes candidate index i as a 1-vector so it fits acq.Sampler.
func point(i int) []float64 { return []float64{float64(i)} }

// SampleBenefit draws nSamples joint samples of the believed benefit
// z = g(f(x)) at the referenced candidates, propagating both outcome-GP
// and preference-GP uncertainty (the integrand of Eq. 12).
func (bs *benefitSampler) SampleBenefit(points [][]float64, nSamples int, rng *rand.Rand) [][]float64 {
	idx := make([]int, len(points))
	for i, p := range points {
		idx[i] = int(p[0])
	}
	// Joint outcome samples per clip per metric at the configs of every
	// referenced candidate.
	q := len(idx)
	m := bs.s.sys.M()
	samples := make([][]objective.Vector, nSamples) // [sample][point]raw outcome
	for si := range samples {
		samples[si] = make([]objective.Vector, q)
	}
	// Per-clip joint draws across the candidate points. The M clips are
	// independent — the paper's batch recommendation exists precisely so
	// observations can proceed in parallel — so fan them out over workers.
	// Each clip draws its five metrics off one posterior factor (see
	// clipModels.sampleJoint), metric mi from an RNG derived from (base
	// seed, clip, metric), which keeps results identical regardless of
	// goroutine scheduling and of how the metrics are grouped into tasks.
	draws := make([][numMetrics][][]float64, m) // [clip][metric][sample][point]
	seedBase := rng.Uint64()
	workers := bs.s.opt.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for ci := 0; ci < m; ci++ {
		cfgs := make([]videosim.Config, q)
		for j, cand := range idx {
			cfgs[j] = bs.cands[cand].cfgs[ci]
		}
		wg.Add(1)
		go func(ci int, cfgs []videosim.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var rngs [numMetrics]*rand.Rand
			for mi := range rngs {
				rngs[mi] = rand.New(rand.NewPCG(seedBase, uint64(ci)*uint64(numMetrics)+uint64(mi)+1))
			}
			draws[ci] = bs.s.clips[ci].sampleJoint(cfgs, nSamples, rngs)
		}(ci, cfgs)
	}
	wg.Wait()
	// Compose raw outcome vectors per sample per point.
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
			samples[si][j] = v
		}
	}
	// Map through the (learned or true) preference to benefit samples. Each
	// outcome sample needs its own preference-posterior draw at q points —
	// O(q³)-ish work that dominates when the shared-sample path covers a
	// large universe — so fan the samples out over the same worker pool,
	// again with per-task RNG streams for schedule-independent results.
	out := make([][]float64, nSamples)
	prefSeed := rng.Uint64()
	for si := 0; si < nSamples; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			row := make([]float64, q)
			if bs.s.opt.TruePref != nil {
				for j := range row {
					row[j] = bs.s.opt.TruePref.Benefit(bs.s.norm.Normalize(samples[si][j]))
				}
			} else {
				ys := make([][]float64, q)
				for j := range ys {
					ys[j] = bs.s.norm.Normalize(samples[si][j]).Slice()
				}
				sampleRng := rand.New(rand.NewPCG(prefSeed, uint64(si)))
				row = bs.s.learner.Model.Sample(ys, 1, sampleRng)[0]
			}
			out[si] = row
		}(si)
	}
	wg.Wait()
	return out
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
	pts := make([][]float64, len(universe))
	for i := range pts {
		pts[i] = point(i)
	}
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
	workers := s.opt.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > len(scores) {
		workers = len(scores)
	}
	if workers <= 1 {
		for ci := range scores {
			if !inBatch[ci] {
				scores[ci] = score(ci)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := w; ci < len(scores); ci += workers {
				if !inBatch[ci] {
					scores[ci] = score(ci)
				}
			}
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
// model gains one comparison against the incumbent.
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
	raw := eva.Evaluate(s.sys, dec)
	norm := s.norm.Normalize(raw)
	if err := s.opt.Check.Finite("measured_outcomes", raw.Slice()...); err != nil {
		return Observation{}, fmt.Errorf("pamo: deployed decision: %w", err)
	}
	ob := Observation{Decision: dec, Raw: raw, Norm: norm}

	// Update outcome models with fresh profiling at the deployed configs.
	for i, clip := range s.sys.Clips {
		s.clips[i].addMeasurement(c.cfgs[i], s.prof.Measure(clip, c.cfgs[i]))
		s.countProfile()
		if err := s.clips[i].refit(); err != nil {
			return ob, err
		}
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
