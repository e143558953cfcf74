//go:build !race

package sched

import (
	"slices"
	"testing"

	"repro/internal/cluster"
)

// TestMatchAllocations pins what the shared matcher costs the paths that
// run it once per PaMO candidate or per replan: a warm MapGroups allocates
// only the returned plan's GroupServer and StreamServer, and a warm
// Replanner.Incremental only the plan's Groups, one copy per non-empty
// group, GroupServer and StreamServer — on mixed and uniform speeds alike.
func TestMatchAllocations(t *testing.T) {
	streams, mixed := fleetInstance()
	uniform := slices.Clone(mixed)
	for j := range uniform {
		uniform[j].SpeedFactor = 0
	}
	for _, tc := range []struct {
		name    string
		servers []cluster.Server
	}{{"mixed speeds", mixed}, {"uniform speed", uniform}} {
		plan, err := Schedule(streams, tc.servers)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := testing.AllocsPerRun(20, func() { _, _ = MapGroups(plan.Groups, streams, tc.servers) }); got != 2 {
			t.Errorf("%s: warm MapGroups allocates %v times, want 2 (the plan's slices)", tc.name, got)
		}
		rp := NewReplanner()
		rp.Adopt(streams, plan)
		if _, ok := rp.Incremental(streams, tc.servers, nil); !ok {
			t.Fatalf("%s: Incremental declined its own adopted plan", tc.name)
		}
		want := 3
		for _, members := range plan.Groups {
			if len(members) > 0 {
				want++
			}
		}
		if got := testing.AllocsPerRun(20, func() { rp.Incremental(streams, tc.servers, nil) }); got != float64(want) {
			t.Errorf("%s: warm Incremental allocates %v times, want %d (the plan's slices and group copies)", tc.name, got, want)
		}
	}
}
