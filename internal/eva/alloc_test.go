//go:build !race

package eva

import "testing"

// TestEvaluatorZeroAlloc pins the scheduler's per-observation evaluation to
// zero heap allocations once its Evaluator has seen a decision that large:
// the outcome vector is a value, and the simulator runs on the Evaluator's
// arena without frame logs. The decisions mix servers the arena
// extrapolates by the hyperperiod with overloaded ones it serves in full.
// (Skipped under -race, which instruments allocation.)
func TestEvaluatorZeroAlloc(t *testing.T) {
	s := sys(5, 3)
	var e Evaluator
	ds := evalDecisions(t, s)
	for _, d := range ds {
		e.Evaluate(s, d) // size the buffers
	}
	for i, d := range ds {
		if n := testing.AllocsPerRun(10, func() { e.Evaluate(s, d) }); n != 0 {
			t.Fatalf("decision %d: warm Evaluator.Evaluate allocates %v times per run, want 0", i, n)
		}
	}
}
