// Package pref implements the comparison-based preference learning loop of
// Section 4.2: a decision-maker oracle (the paper's evaluation derives
// comparisons from the hidden Eq. 13 benefit), EUBO-driven pair selection,
// and the pairwise-accuracy metric of Figure 9.
package pref

import (
	"errors"
	"math/rand/v2"

	"repro/internal/acq"
	"repro/internal/kernel"
	"repro/internal/objective"
	"repro/internal/prefgp"
)

// DecisionMaker answers pairwise comparisons between normalized outcome
// vectors.
type DecisionMaker interface {
	// Prefer reports whether the decision maker prefers y1 to y2.
	Prefer(y1, y2 objective.Vector) bool
}

// Oracle is a decision maker backed by a hidden true preference (Eq. 13),
// optionally with probit response noise: with Noise > 0, comparisons whose
// benefit gap is small are answered inconsistently, like a human would.
type Oracle struct {
	Pref  objective.Preference
	Noise float64 // std of the Thurstonian response noise, 0 = exact
	Rng   *rand.Rand
}

// Prefer implements DecisionMaker.
func (o *Oracle) Prefer(y1, y2 objective.Vector) bool {
	d := o.Pref.Benefit(y1) - o.Pref.Benefit(y2)
	if o.Noise > 0 && o.Rng != nil {
		d += o.Noise * o.Rng.NormFloat64()
	}
	return d > 0
}

// Learner runs the preference-learning loop: it owns a preference GP and
// grows its comparison set by querying a decision maker, selecting each
// pair either with EUBO (the paper's accelerator) or at random.
type Learner struct {
	Model *prefgp.Model
	DM    DecisionMaker
	// UseEUBO selects comparison pairs by maximizing EUBO (Eq. 11);
	// otherwise pairs are drawn uniformly from the pool.
	UseEUBO bool
	Rng     *rand.Rand
	// EUBOQueries counts the decision-maker queries whose pair was chosen
	// by the EUBO search (as opposed to random pairing); telemetry reads
	// it after Learn.
	EUBOQueries int
}

// NewLearner builds a learner over the K-dimensional normalized outcome
// space with the paper's GP preference model.
func NewLearner(dm DecisionMaker, useEUBO bool, rng *rand.Rand) *Learner {
	k := kernel.NewRBF(objective.K)
	// Outcome vectors are normalized to [0,1]^K and the true benefit
	// (Eq. 13) is piecewise-linear in each coordinate, so a long
	// lengthscale — locally near-linear sample paths — generalizes from
	// few comparisons.
	p := k.LogParams()
	p[0] = 1.4 // σ² ≈ 4: utilities span a few units once many comparisons bind
	for i := 1; i < len(p); i++ {
		p[i] = 0 // ℓ = 1
	}
	k.SetLogParams(p)
	return &Learner{
		Model:   prefgp.NewModel(k, 0.03),
		DM:      dm,
		UseEUBO: useEUBO,
		Rng:     rng,
	}
}

// ErrPoolTooSmall is returned when fewer than two candidate outcomes exist.
var ErrPoolTooSmall = errors.New("pref: need at least two candidate outcome vectors")

// Learn runs nPairs query rounds against the pool of candidate outcome
// vectors (normalized), refitting the model after every answer as in
// Algorithm 2's preference-modeling phase. Pool entries that coincide
// exactly are one model point and stay in the pool once, so no question is
// asked twice and no point is compared with itself.
func (l *Learner) Learn(pool []objective.Vector, nPairs int) error {
	if len(pool) < 2 {
		return ErrPoolTooSmall
	}
	var (
		pts  [][]float64
		idx  []int
		uniq []objective.Vector
		seen = make(map[int]bool, len(pool))
	)
	for _, y := range pool {
		p := y.Slice()
		id := l.Model.AddPoint(p)
		if seen[id] {
			continue
		}
		seen[id] = true
		pts, idx, uniq = append(pts, p), append(idx, id), append(uniq, y)
	}
	pool = uniq
	asked := make(map[[2]int]bool)
	for v := 0; v < nPairs; v++ {
		var i, j int
		// Model exists only after the first (random) comparison.
		eubo := l.UseEUBO && l.Model.NumComparisons() > 0
		if eubo {
			if err := l.Model.Fit(); err != nil {
				return err
			}
			i, j = l.selectEUBO(pts, asked)
		} else {
			i, j = l.randomPair(len(pool), asked)
		}
		if i < 0 {
			break // pool exhausted
		}
		asked[[2]int{i, j}] = true
		if eubo {
			l.EUBOQueries++
		}
		var err error
		if l.DM.Prefer(pool[i], pool[j]) {
			err = l.Model.AddComparison(idx[i], idx[j])
		} else {
			err = l.Model.AddComparison(idx[j], idx[i])
		}
		if err != nil {
			return err
		}
	}
	return l.Model.Fit()
}

func (l *Learner) randomPair(n int, asked map[[2]int]bool) (int, int) {
	for attempt := 0; attempt < 200; attempt++ {
		i, j := l.Rng.IntN(n), l.Rng.IntN(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if !asked[[2]int{i, j}] {
			return i, j
		}
	}
	return -1, -1
}

// selectEUBO picks the unasked pool pair of highest EUBO from one batch
// posterior over the pool; (-1, -1) means every pair has been asked.
func (l *Learner) selectEUBO(pts [][]float64, asked map[[2]int]bool) (int, int) {
	i, j, _ := acq.SelectEUBOPairExcept(l.Model, pts, func(i, j int) bool { return asked[[2]int{i, j}] })
	return i, j
}

// PairwiseAccuracy is the Figure 9 metric: the fraction of random test
// pairs on which the learned model ranks the two outcomes the same way as
// the true preference. Ties in either ranking count as incorrect.
func PairwiseAccuracy(m *prefgp.Model, truth objective.Preference, nPairs int, rng *rand.Rand) float64 {
	correct := 0
	for t := 0; t < nPairs; t++ {
		y1 := randomOutcome(rng)
		y2 := randomOutcome(rng)
		z1, _ := m.PredictOne(y1.Slice())
		z2, _ := m.PredictOne(y2.Slice())
		t1, t2 := truth.Benefit(y1), truth.Benefit(y2)
		if (z1 > z2 && t1 > t2) || (z1 < z2 && t1 < t2) {
			correct++
		}
	}
	return float64(correct) / float64(nPairs)
}

func randomOutcome(rng *rand.Rand) objective.Vector {
	var y objective.Vector
	for k := range y {
		y[k] = rng.Float64()
	}
	return y
}
