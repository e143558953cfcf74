//go:build !race

package prefgp

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/stats"
)

// TestPredictWithZeroAlloc pins the preference posterior — the inner loop
// of every EUBO question and every benefit draw — to zero heap allocations
// on a warm workspace. (Skipped under -race, which instruments
// allocation.)
func TestPredictWithZeroAlloc(t *testing.T) {
	m, pts := buildModel(t, 10, 7)
	ys := pts[:6]
	ws := mat.NewWorkspace()
	m.PredictWith(ws, ys) // warm the workspace
	n := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.PredictWith(ws, ys)
	})
	if n != 0 {
		t.Fatalf("warm PredictWith allocates %v times per run, want 0", n)
	}
}

// TestSampleAllocatesOnlyItsResult pins Sample to its two result
// allocations (the rows' block and their headers) and SampleWith, drawing
// into caller rows on a warm workspace, to none.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	m, pts := buildModel(t, 10, 9)
	ys := pts[:5]
	rng := stats.NewRNG(3)
	m.Sample(ys, 4, rng) // warm the workspace pool
	if n := testing.AllocsPerRun(100, func() { m.Sample(ys, 4, rng) }); n != 2 {
		t.Fatalf("Sample allocates %v times per run, want 2 (its result)", n)
	}
	rows := m.Sample(ys, 4, rng)
	ws := mat.NewWorkspace()
	m.SampleWith(ws, ys, rows, rng)
	n := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m.SampleWith(ws, ys, rows, rng)
	})
	if n != 0 {
		t.Fatalf("warm SampleWith allocates %v times per run, want 0", n)
	}
}

// TestRefitAllocationsBounded pins Fit's scratch reuse: a refit at an
// unchanged point count allocates nothing, however many Newton steps it
// takes (both inverses are solved in place in the model's own storage).
func TestRefitAllocationsBounded(t *testing.T) {
	m, _ := buildModel(t, 12, 5)
	if n := testing.AllocsPerRun(20, func() {
		if err := m.Fit(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("refit allocates %v times per run, want 0", n)
	}
}
