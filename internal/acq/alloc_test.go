//go:build !race

package acq

import (
	"math/rand/v2"
	"testing"
)

// TestSharedScorerZeroAlloc pins the hot loop of greedy batch construction:
// once the shared draws are in place, scoring every candidate column and
// committing the argmax must not touch the heap, for both the hinged (qNEI)
// and hinge-free (qSR) reductions. (Skipped under -race, which instruments
// allocation.)
func TestSharedScorerZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	const nSamples, nPoints = 64, 40
	z := make([][]float64, nSamples)
	for s := range z {
		z[s] = make([]float64, nPoints)
		for i := range z[s] {
			z[s][i] = rng.NormFloat64()
		}
	}
	for _, tc := range []struct {
		name string
		sc   *SharedScorer
	}{
		{"qnei", NewSharedQNEI(z, []int{0, 1, 2})},
		{"qsr", NewSharedQSR(z)},
	} {
		tc.sc.Score(3) // warm any lazy state
		if n := testing.AllocsPerRun(20, func() {
			best, bestV := -1, 0.0
			for c := 3; c < nPoints; c++ {
				if v := tc.sc.Score(c); best < 0 || v > bestV {
					best, bestV = c, v
				}
			}
			tc.sc.Add(best)
		}); n != 0 {
			t.Fatalf("%s: warm greedy scoring allocates %v times per run, want 0", tc.name, n)
		}
	}
}
