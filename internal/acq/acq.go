// Package acq implements the Monte-Carlo batch acquisition functions used
// by PaMO's Bayesian optimization loop (Section 4.3): qNEI (the paper's
// choice), and the qEI / qUCB / qSR variants used in the ablation study,
// plus EUBO preference-pair selection (Section 4.2).
//
// All batch acquisitions are defined against a Sampler that yields joint
// posterior samples of the (noisy, preference-weighted) benefit z = g(f(x))
// at arbitrary decision points, so they integrate over the uncertainty of
// both the outcome models and the preference model exactly as Eq. 12
// prescribes.
package acq

import (
	"math"
	"math/rand/v2"

	"repro/internal/mat"
	"repro/internal/prefgp"
	"repro/internal/stats"
)

// Sampler provides joint posterior samples of the scalar benefit at a set
// of decision points. The result has shape [nSamples][len(points)].
type Sampler interface {
	SampleBenefit(points [][]float64, nSamples int, rng *rand.Rand) [][]float64
}

// QNEI is the batch Noisy Expected Improvement of candidate batch cand
// given the previously observed points obs. Both candidate and incumbent
// benefits are drawn from the same joint posterior sample, so observation
// noise and model uncertainty affect the incumbent too — the "anti-noise"
// property the paper relies on:
//
//	qNEI = E[ max(0, max_i z(cand_i) − max_j z(obs_j)) ].
func QNEI(s Sampler, cand, obs [][]float64, nSamples int, rng *rand.Rand) float64 {
	if len(cand) == 0 {
		return 0
	}
	if len(obs) == 0 {
		// No incumbent: qNEI degenerates to qSR.
		return QSR(s, cand, nSamples, rng)
	}
	all := make([][]float64, 0, len(cand)+len(obs))
	all = append(all, cand...)
	all = append(all, obs...)
	samples := s.SampleBenefit(all, nSamples, rng)
	var acc float64
	for _, z := range samples {
		best := math.Inf(-1)
		for _, v := range z[:len(cand)] {
			if v > best {
				best = v
			}
		}
		inc := math.Inf(-1)
		for _, v := range z[len(cand):] {
			if v > inc {
				inc = v
			}
		}
		if d := best - inc; d > 0 {
			acc += d
		}
	}
	return acc / float64(len(samples))
}

// QEI is the batch Expected Improvement over a fixed (noise-free) incumbent
// value best: E[max(0, max_i z(cand_i) − best)].
func QEI(s Sampler, cand [][]float64, best float64, nSamples int, rng *rand.Rand) float64 {
	if len(cand) == 0 {
		return 0
	}
	samples := s.SampleBenefit(cand, nSamples, rng)
	var acc float64
	for _, z := range samples {
		m := math.Inf(-1)
		for _, v := range z {
			if v > m {
				m = v
			}
		}
		if d := m - best; d > 0 {
			acc += d
		}
	}
	return acc / float64(len(samples))
}

// QSR is the batch Simple Regret acquisition: E[max_i z(cand_i)].
func QSR(s Sampler, cand [][]float64, nSamples int, rng *rand.Rand) float64 {
	if len(cand) == 0 {
		return math.Inf(-1)
	}
	samples := s.SampleBenefit(cand, nSamples, rng)
	var acc float64
	for _, z := range samples {
		m := math.Inf(-1)
		for _, v := range z {
			if v > m {
				m = v
			}
		}
		acc += m
	}
	return acc / float64(len(samples))
}

// QUCB is the Monte-Carlo batch Upper Confidence Bound (Wilson et al.):
//
//	qUCB = E[ max_i ( μ_i + √(βπ/2)·|z_i − μ_i| ) ],
//
// where μ is the per-point posterior mean estimated from the same sample
// set. beta controls exploration (typical 0.2–4).
func QUCB(s Sampler, cand [][]float64, beta float64, nSamples int, rng *rand.Rand) float64 {
	if len(cand) == 0 {
		return math.Inf(-1)
	}
	samples := s.SampleBenefit(cand, nSamples, rng)
	q := len(cand)
	mu := make([]float64, q)
	for _, z := range samples {
		for i, v := range z {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(samples))
	}
	scale := math.Sqrt(beta * math.Pi / 2)
	var acc float64
	for _, z := range samples {
		m := math.Inf(-1)
		for i, v := range z {
			u := mu[i] + scale*math.Abs(v-mu[i])
			if u > m {
				m = u
			}
		}
		acc += m
	}
	return acc / float64(len(samples))
}

// --- shared-sample acquisition ------------------------------------------
//
// The Monte-Carlo acquisitions above draw a fresh joint sample set for every
// trial batch, which makes greedy batch construction O(b·|cands|) full GP
// sampling passes. The shared-sample path instead draws the joint posterior
// over the whole candidate∪observation universe once, then scores any batch
// as a column-max over those fixed draws. Because the marginals of a joint
// MVN restricted to a subset of points coincide with sampling that subset
// directly, the scores are statistically equivalent — the estimator merely
// reuses draws (and therefore shares Monte-Carlo noise) across trials, which
// is exactly what makes greedy argmax comparisons cheap and consistent.

// SharedScorer scores greedy batch extensions against a fixed matrix of
// joint posterior draws z[sample][point]. All four batch acquisitions reduce
// to mean-over-samples of f(max over batch columns); the scorer keeps the
// per-sample running max of the committed batch so extending the batch by
// one candidate costs O(nSamples) regardless of batch size.
//
// Score is safe for concurrent use; Add is not.
type SharedScorer struct {
	m    [][]float64 // draws, possibly transformed (qUCB): m[sample][point]
	inc  []float64   // per-sample hinge baseline (qNEI/qEI); nil = no hinge
	base []float64   // running max over committed batch columns, per sample
}

func newSharedScorer(m [][]float64, inc []float64) *SharedScorer {
	base := make([]float64, len(m))
	for i := range base {
		base[i] = math.Inf(-1)
	}
	return &SharedScorer{m: m, inc: inc, base: base}
}

// NewSharedQNEI builds a qNEI scorer from shared draws z over the universe,
// with obsCols indexing the observed (incumbent) points inside z. With no
// observed columns it degenerates to qSR, mirroring QNEI.
func NewSharedQNEI(z [][]float64, obsCols []int) *SharedScorer {
	if len(obsCols) == 0 {
		return NewSharedQSR(z)
	}
	inc := make([]float64, len(z))
	for s, row := range z {
		best := math.Inf(-1)
		for _, c := range obsCols {
			if row[c] > best {
				best = row[c]
			}
		}
		inc[s] = best
	}
	return newSharedScorer(z, inc)
}

// NewSharedQEI builds a qEI scorer over shared draws with a fixed noise-free
// incumbent value best.
func NewSharedQEI(z [][]float64, best float64) *SharedScorer {
	inc := make([]float64, len(z))
	for i := range inc {
		inc[i] = best
	}
	return newSharedScorer(z, inc)
}

// NewSharedQSR builds a qSR scorer over shared draws.
func NewSharedQSR(z [][]float64) *SharedScorer {
	return newSharedScorer(z, nil)
}

// NewSharedQUCB builds a qUCB scorer over shared draws: each column is
// transformed to μ_i + √(βπ/2)·|z − μ_i| with μ estimated from the same
// draws (as in QUCB), after which qUCB is a plain mean-of-max.
func NewSharedQUCB(z [][]float64, beta float64) *SharedScorer {
	if len(z) == 0 {
		return newSharedScorer(z, nil)
	}
	q := len(z[0])
	mu := make([]float64, q)
	for _, row := range z {
		for i, v := range row {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(z))
	}
	scale := math.Sqrt(beta * math.Pi / 2)
	u := make([][]float64, len(z))
	for s, row := range z {
		ur := make([]float64, q)
		for i, v := range row {
			ur[i] = mu[i] + scale*math.Abs(v-mu[i])
		}
		u[s] = ur
	}
	return newSharedScorer(u, nil)
}

// Score returns the acquisition value of the committed batch extended by
// column col, without committing it.
func (sc *SharedScorer) Score(col int) float64 {
	if len(sc.m) == 0 {
		return math.Inf(-1)
	}
	var acc float64
	if sc.inc == nil {
		for s, row := range sc.m {
			v := row[col]
			if b := sc.base[s]; b > v {
				v = b
			}
			acc += v
		}
	} else {
		for s, row := range sc.m {
			v := row[col]
			if b := sc.base[s]; b > v {
				v = b
			}
			if d := v - sc.inc[s]; d > 0 {
				acc += d
			}
		}
	}
	return acc / float64(len(sc.m))
}

// Add commits column col to the batch, folding it into the running max.
func (sc *SharedScorer) Add(col int) {
	for s, row := range sc.m {
		if row[col] > sc.base[s] {
			sc.base[s] = row[col]
		}
	}
}

// SelectEUBOPair returns the indices (i, j), i < j, of the candidate
// outcome vectors whose comparison maximizes EUBO — the Expected Utility of
// the Best Option, E[max(g(y_i), g(y_j))] under the preference posterior,
// in closed form from the pair's bivariate Gaussian marginal (Lin et al.
// 2022, Eq. 11 in the paper) — and that EUBO value. With fewer than two
// candidates it returns (-1, -1, -Inf).
func SelectEUBOPair(m *prefgp.Model, candidates [][]float64) (int, int, float64) {
	return SelectEUBOPairExcept(m, candidates, nil)
}

// SelectEUBOPairExcept is SelectEUBOPair over the pairs skip does not
// exclude (a nil skip excludes none). One batch posterior over all
// candidates yields every pair's bivariate marginal (means, variances,
// covariance) with the same bits a two-point prediction of that pair
// would give, so the scan costs one posterior instead of one per pair.
// Pairs are scanned in (i, j) order and a later pair must score strictly
// higher to win. The scan starts from -Inf, so on a finite posterior it
// returns (-1, -1, -Inf) only when every pair is excluded, however low the
// remaining pairs score.
func SelectEUBOPairExcept(m *prefgp.Model, candidates [][]float64, skip func(i, j int) bool) (int, int, float64) {
	bestI, bestJ := -1, -1
	best := math.Inf(-1)
	if len(candidates) < 2 {
		return bestI, bestJ, best
	}
	ws := mat.GetWorkspace()
	defer mat.PutWorkspace(ws)
	mu, cov := m.PredictWith(ws, candidates)
	sd := ws.Vec(len(candidates))
	for i := range sd {
		sd[i] = math.Sqrt(math.Max(cov.At(i, i), 0))
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			if skip != nil && skip(i, j) {
				continue
			}
			v := stats.EMaxGaussianPair(mu[i], mu[j], sd[i], sd[j], cov.At(i, j))
			if v > best {
				best, bestI, bestJ = v, i, j
			}
		}
	}
	return bestI, bestJ, best
}
