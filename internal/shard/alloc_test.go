//go:build !race

package shard

import (
	"testing"

	"repro/internal/sched"
)

// TestPlannerWarmAllocations bounds a warm sharded solve's allocations, so
// the cells' matchers stay per-cell scratch: four sequential cells placing
// 48 streams on 12 mixed-speed servers allocate at most 386 times per solve
// (partitioning, each cell's grouping, the claims' member slices, the
// merged plan and the stats).
func TestPlannerWarmAllocations(t *testing.T) {
	streams := mkStreams(3, 48, 0.08)
	servers := mkServers(9, 12, false)
	for j := range servers {
		servers[j].SpeedFactor = []float64{1, 2, 0.5}[j%3]
	}
	snap := sched.NewSnapshot(5, servers, nil)
	pl := New(Options{Shards: 4, Sequential: true})
	if _, _, err := pl.Plan(streams, snap); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { _, _, _ = pl.Plan(streams, snap) }); got > 386 {
		t.Fatalf("warm sharded solve allocates %v times, want at most 386", got)
	}
}
