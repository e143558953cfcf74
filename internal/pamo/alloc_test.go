//go:build !race

package pamo

import (
	"testing"
)

// TestBOLoopAllocationsFlatInObservations pins the BO inner loop's scratch
// reuse: the number of heap allocations one observation (observe plus the
// refitClips that conditions the outcome models on it) and one selectBatch
// round make must not grow with the number of observations. Per-point
// buffers (candidate handles, encoded queries, normalized outcome vectors,
// posterior intermediates, DES frame logs) would each add allocations per
// point of a universe that grows with every observation. (Skipped under
// -race, which instruments allocation.)
func TestBOLoopAllocationsFlatInObservations(t *testing.T) {
	opt := smallOpts(5)
	opt.Workers = 2
	opt.MaxIter = 16
	s := readyScheduler(t, 4, 3, opt)
	round := func() (observe, selectBatch float64) {
		cands := s.generateCandidates()
		if len(cands) == 0 {
			t.Skip("no candidates")
		}
		selectBatch = testing.AllocsPerRun(3, func() { s.selectBatch(cands) })
		i := 0
		observe = testing.AllocsPerRun(3, func() {
			if _, err := s.observe(cands[i%len(cands)]); err != nil {
				t.Fatal(err)
			}
			if err := s.refitClips(); err != nil {
				t.Fatal(err)
			}
			i++
		})
		return observe, selectBatch
	}
	obs0, sel0 := round()
	n0 := len(s.obs)
	for len(s.obs) < n0+16 {
		round()
	}
	obs1, sel1 := round()
	t.Logf("observations %d → %d: observe %v → %v allocs, selectBatch %v → %v allocs", n0, len(s.obs), obs0, obs1, sel0, sel1)
	// Slack covers amortized slice growth and a pool refill after a GC.
	const slack = 8
	if obs1 > obs0+slack {
		t.Errorf("observe allocations grew from %v to %v over %d observations", obs0, obs1, len(s.obs)-n0)
	}
	if sel1 > sel0+slack {
		t.Errorf("selectBatch allocations grew from %v to %v over %d observations", sel0, sel1, len(s.obs)-n0)
	}
}
