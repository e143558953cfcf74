//go:build !race

package shard

import (
	"context"
	"testing"

	"repro/internal/sched"
)

// TestPlannerWarmAllocations bounds a warm sharded solve's allocations. On
// 48 streams and 12 mixed-speed servers, four cells do not all fit their
// slices, and the solve falls back to the serial path: at most 386
// allocations. On 24 servers every cell places on its own slice: at most
// 216 allocations (the cut, each cell's grouping and match, the
// concatenated plan and the goroutines).
func TestPlannerWarmAllocations(t *testing.T) {
	for _, tc := range []struct {
		servers  int
		fellBack bool
		bound    float64
	}{{12, true, 386}, {24, false, 216}} {
		streams := mkStreams(3, 48, 0.08)
		servers := mkServers(9, tc.servers, false)
		for j := range servers {
			servers[j].SpeedFactor = []float64{1, 2, 0.5}[j%3]
		}
		snap := sched.NewSnapshot(5, servers, nil)
		opt := Options{Shards: 4}
		_, st, err := Plan(context.Background(), streams, snap, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack != tc.fellBack {
			t.Fatalf("%d servers: fell back %v, want %v", tc.servers, st.FellBack, tc.fellBack)
		}
		got := testing.AllocsPerRun(20, func() { _, _, _ = Plan(context.Background(), streams, snap, opt) })
		if got > tc.bound {
			t.Fatalf("%d servers: warm sharded solve allocates %v times, want at most %v", tc.servers, got, tc.bound)
		}
	}
}
