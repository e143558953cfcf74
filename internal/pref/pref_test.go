package pref

import (
	"math"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/objective"
	"repro/internal/prefgp"
	"repro/internal/stats"
)

func randomPool(n int, seed uint64) []objective.Vector {
	rng := stats.NewRNG(seed)
	pool := make([]objective.Vector, n)
	for i := range pool {
		for k := range pool[i] {
			pool[i][k] = rng.Float64()
		}
	}
	return pool
}

func TestOracleExact(t *testing.T) {
	o := &Oracle{Pref: objective.UniformPreference()}
	good := objective.UtopiaNormalized()
	var bad objective.Vector
	bad[objective.Latency] = 1
	if !o.Prefer(good, bad) {
		t.Fatal("oracle must prefer utopia")
	}
	if o.Prefer(bad, good) {
		t.Fatal("oracle inverted")
	}
}

func TestOracleNoiseFlipsCloseCalls(t *testing.T) {
	rng := stats.NewRNG(5)
	o := &Oracle{Pref: objective.UniformPreference(), Noise: 0.5, Rng: rng}
	a := objective.UtopiaNormalized()
	b := a
	b[objective.Energy] = 0.01 // nearly identical
	flips := 0
	for i := 0; i < 200; i++ {
		if !o.Prefer(a, b) {
			flips++
		}
	}
	if flips == 0 || flips == 200 {
		t.Fatalf("noisy oracle answered deterministically (%d/200 flips)", flips)
	}
}

func TestLearnerNeedsPool(t *testing.T) {
	l := NewLearner(&Oracle{Pref: objective.UniformPreference()}, true, stats.NewRNG(1))
	if err := l.Learn(randomPool(1, 1), 5); err != ErrPoolTooSmall {
		t.Fatalf("err = %v", err)
	}
}

func TestLearnerAccuracyImprovesWithPairs(t *testing.T) {
	truth := objective.Preference{W: objective.Vector{1, 2, 0.5, 1.5, 1}}
	run := func(pairs int) float64 {
		dm := &Oracle{Pref: truth}
		l := NewLearner(dm, true, stats.NewRNG(7))
		if err := l.Learn(randomPool(24, 3), pairs); err != nil {
			t.Fatal(err)
		}
		return PairwiseAccuracy(l.Model, truth, 400, stats.NewRNG(11))
	}
	few := run(3)
	many := run(24)
	if many < 0.8 {
		t.Fatalf("accuracy with 24 pairs = %v, want ≥ 0.8", many)
	}
	if many+0.05 < few {
		t.Fatalf("accuracy regressed with more pairs: %v -> %v", few, many)
	}
}

func TestEUBOBeatsOrMatchesRandomSelection(t *testing.T) {
	// Averaged over seeds, EUBO-selected pairs should not be worse than
	// random pairs at equal budget.
	truth := objective.Preference{W: objective.Vector{0.2, 1, 1.6, 3.2, 1}}
	avg := func(useEUBO bool) float64 {
		var acc float64
		const runs = 5
		for seed := uint64(0); seed < runs; seed++ {
			dm := &Oracle{Pref: truth}
			l := NewLearner(dm, useEUBO, stats.NewRNG(100+seed))
			if err := l.Learn(randomPool(20, 40+seed), 9); err != nil {
				t.Fatal(err)
			}
			acc += PairwiseAccuracy(l.Model, truth, 300, stats.NewRNG(200+seed))
		}
		return acc / runs
	}
	eubo := avg(true)
	random := avg(false)
	if eubo < random-0.08 {
		t.Fatalf("EUBO selection markedly worse than random: %v vs %v", eubo, random)
	}
}

func TestLearnerRespectsPairBudget(t *testing.T) {
	dm := &Oracle{Pref: objective.UniformPreference()}
	l := NewLearner(dm, true, stats.NewRNG(13))
	if err := l.Learn(randomPool(10, 17), 7); err != nil {
		t.Fatal(err)
	}
	if got := l.Model.NumComparisons(); got != 7 {
		t.Fatalf("asked %d comparisons, want 7", got)
	}
}

func TestConsoleDM(t *testing.T) {
	var out strings.Builder
	dm := &ConsoleDM{In: strings.NewReader("garbage\n2\n1\n"), Out: &out}
	a := objective.UtopiaNormalized()
	var b objective.Vector
	// First query: garbage re-prompts, then "2" → prefers second.
	if dm.Prefer(a, b) {
		t.Fatal("answer 2 should mean the second option")
	}
	// Second query: "1" → prefers first.
	if !dm.Prefer(a, b) {
		t.Fatal("answer 1 should mean the first option")
	}
	// Third query: EOF → defaults to first.
	if !dm.Prefer(a, b) {
		t.Fatal("EOF should default to the first option")
	}
	rendered := out.String()
	for _, want := range []string{"latency", "accuracy", "option 1", "please answer"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("console output missing %q:\n%s", want, rendered)
		}
	}
}

func TestLearnerExhaustsSmallPoolGracefully(t *testing.T) {
	dm := &Oracle{Pref: objective.UniformPreference()}
	l := NewLearner(dm, false, stats.NewRNG(19))
	// Pool of 3 has only 3 distinct pairs; asking for 10 must stop early.
	if err := l.Learn(randomPool(3, 21), 10); err != nil {
		t.Fatal(err)
	}
	if got := l.Model.NumComparisons(); got != 3 {
		t.Fatalf("comparisons = %d, want 3", got)
	}
}

// preferFunc adapts a function to DecisionMaker.
type preferFunc func(a, b objective.Vector) bool

func (f preferFunc) Prefer(a, b objective.Vector) bool { return f(a, b) }

// TestLearnerSkipsDuplicatePoolPair is the duplicate-corner regression: two
// pool entries that coincide exactly map to one model point, and picking
// that pair used to fail the whole solve with "comparison of a point with
// itself". The pool [a, a, b] holds two points, so under both pair
// selectors the decision maker is asked exactly one question, (a, b), once.
func TestLearnerSkipsDuplicatePoolPair(t *testing.T) {
	pool := randomPool(2, 23)
	pool = []objective.Vector{pool[0], pool[0], pool[1]}
	for _, eubo := range []bool{true, false} {
		for seed := uint64(0); seed < 8; seed++ {
			asked := 0
			dm := preferFunc(func(a, b objective.Vector) bool {
				if a == b {
					t.Fatalf("eubo=%v seed=%d: asked to compare %v with itself", eubo, seed, a)
				}
				asked++
				return objective.UniformPreference().Benefit(a) > objective.UniformPreference().Benefit(b)
			})
			l := NewLearner(dm, eubo, stats.NewRNG(seed))
			if err := l.Learn(pool, 3); err != nil {
				t.Fatalf("eubo=%v seed=%d: %v", eubo, seed, err)
			}
			if got := l.Model.NumComparisons(); got != 1 || asked != 1 {
				t.Fatalf("eubo=%v seed=%d: %d comparisons from %d questions, want the one distinct-point pair", eubo, seed, got, asked)
			}
			// Only the first question is drawn at random under EUBO.
			want := 0
			if eubo {
				want = asked - 1
			}
			if l.EUBOQueries != want {
				t.Fatalf("eubo=%v seed=%d: %d EUBO queries counted, want %d", eubo, seed, l.EUBOQueries, want)
			}
		}
	}
}

// TestLearnerAsksEveryPairBelowOldSentinel is the regression for EUBO's old
// "pool exhausted" rule. The scan started from NormQuantile(1e-12) ≈ −7.03
// instead of −Inf, so once every unasked pair's EUBO fell below that, Learn
// stopped short of nPairs. A large kernel variance and a wide probit scale
// put the losers' latent utilities far below zero, so the last pair scores
// below −7.03; all six pairs of the 4-point pool must still be asked.
func TestLearnerAsksEveryPairBelowOldSentinel(t *testing.T) {
	pool := randomPool(4, 0)
	for seed := uint64(0); seed < 3; seed++ {
		l := NewLearner(&Oracle{Pref: objective.UniformPreference()}, true, stats.NewRNG(seed))
		k := kernel.NewRBF(objective.K)
		p := k.LogParams()
		p[0] = math.Log(1e4)
		k.SetLogParams(p)
		l.Model = prefgp.NewModel(k, 10)
		if err := l.Learn(pool, 6); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := l.Model.NumComparisons(); got != 6 {
			t.Fatalf("seed %d: %d comparisons, want all 6 pairs of a 4-point pool", seed, got)
		}
	}
}
