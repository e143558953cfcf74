package shard

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// TestMatchPathsAgree holds the three paths that place groups on servers —
// the serial ScheduleMasked, the Replanner's incremental re-match of an
// adopted grouping, and a two-cell sharded plan — to one verdict on
// clusters where the match's masks decide the outcome: all three decline,
// or all three put every stream on the same server (and the two serial
// paths give the same GroupServer). The Replanner adopts the grouping of a
// relaxed copy of the cluster (every uplink positive, every speed 1), the
// same grouping Algorithm 1 makes on the real one.
func TestMatchPathsAgree(t *testing.T) {
	t10, t5, t6 := sched.RatFromFPS(10), sched.RatFromFPS(5), sched.RatFromFPS(6)
	for _, tc := range []struct {
		name     string
		streams  []sched.Stream
		servers  []cluster.Server
		feasible bool
	}{{
		// Two streams that cannot share a server, and one server with no
		// uplink: one group's bits must cross a zero-capacity link.
		name: "zero uplink, uniform speed",
		streams: []sched.Stream{
			{Video: 0, Period: t10, Proc: 0.06, Bits: 1e6},
			{Video: 1, Period: t10, Proc: 0.06, Bits: 1e6},
		},
		servers: []cluster.Server{{Name: "a", Uplink: 10e6}, {Name: "b", Uplink: 0}},
	}, {
		// The cheaper match puts the 5 fps stream on the fast-uplink half-speed
		// server, where 0.12 s exceeds its 0.2 s · 0.5 budget; the speed mask
		// forces it onto the full-speed server instead.
		name: "slow server forces the placement",
		streams: []sched.Stream{
			{Video: 0, Period: t5, Proc: 0.12, Bits: 2e6},
			{Video: 1, Period: t6, Proc: 0.05, Bits: 1e6},
		},
		servers:  []cluster.Server{{Name: "a", Uplink: 10e6}, {Name: "b", Uplink: 20e6, SpeedFactor: 0.5}},
		feasible: true,
	}, {
		// Neither group fits the half-speed server, and they cannot share.
		name: "slow server fits no group",
		streams: []sched.Stream{
			{Video: 0, Period: t5, Proc: 0.12, Bits: 2e6},
			{Video: 1, Period: t6, Proc: 0.1, Bits: 1e6},
		},
		servers: []cluster.Server{{Name: "a", Uplink: 10e6}, {Name: "b", Uplink: 20e6, SpeedFactor: 0.5}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			serial, serr := sched.ScheduleMasked(tc.streams, tc.servers, nil)
			if (serr == nil) != tc.feasible || (serr != nil && !errors.Is(serr, sched.ErrInfeasible)) {
				t.Fatalf("ScheduleMasked: %v, want feasible=%v", serr, tc.feasible)
			}

			relaxed := make([]cluster.Server, len(tc.servers))
			for j := range relaxed {
				relaxed[j] = cluster.Server{Name: tc.servers[j].Name, Uplink: 10e6}
			}
			baseline, err := sched.ScheduleMasked(tc.streams, relaxed, nil)
			if err != nil {
				t.Fatalf("relaxed cluster: %v", err)
			}
			rp := sched.NewReplanner()
			rp.Adopt(tc.streams, baseline)
			inc, ok := rp.Incremental(tc.streams, tc.servers, nil)
			if ok != tc.feasible {
				t.Fatalf("Replanner.Incremental ok=%v, ScheduleMasked feasible=%v (plan %+v)", ok, tc.feasible, inc)
			}

			sharded, _, perr := Plan(context.Background(), tc.streams, sched.NewSnapshot(0, tc.servers, nil), Options{Shards: 2})
			if (perr == nil) != tc.feasible || (perr != nil && !errors.Is(perr, sched.ErrInfeasible)) {
				t.Fatalf("sharded planner: %v, want feasible=%v", perr, tc.feasible)
			}

			if !tc.feasible {
				return
			}
			if !reflect.DeepEqual(inc.GroupServer, serial.GroupServer) {
				t.Fatalf("GroupServer: Replanner %v, ScheduleMasked %v", inc.GroupServer, serial.GroupServer)
			}
			if !reflect.DeepEqual(inc.StreamServer, serial.StreamServer) || !reflect.DeepEqual(sharded.StreamServer, serial.StreamServer) {
				t.Fatalf("StreamServer: ScheduleMasked %v, Replanner %v, sharded %v",
					serial.StreamServer, inc.StreamServer, sharded.StreamServer)
			}
			if want := []int{0, 1}; !reflect.DeepEqual(serial.StreamServer, want) {
				t.Fatalf("StreamServer %v, want %v: the speed mask did not steer the match", serial.StreamServer, want)
			}
		})
	}
}
