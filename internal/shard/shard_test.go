package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/sched"
)

// lcg is the deterministic generator every workload builder here uses.
type lcg uint64

func (r *lcg) next(k int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int((uint64(*r) >> 33) % uint64(k))
}

func mkStreams(seed uint64, m int, load float64) []sched.Stream {
	rng := lcg(seed)
	fps := []int64{5, 6, 10, 15, 30}
	base := make([]sched.Stream, m)
	for i := range base {
		p := sched.RatFromFPS(fps[rng.next(len(fps))])
		base[i] = sched.Stream{
			Video:  i,
			Period: p,
			Proc:   p.Float() * load * (0.2 + 0.8*float64(rng.next(100))/100),
			Bits:   1e6 * (1 + float64(rng.next(20))),
		}
	}
	return sched.SplitHighRate(base)
}

func mkServers(seed uint64, n int, uniform bool) []cluster.Server {
	rng := lcg(seed)
	servers := make([]cluster.Server, n)
	for j := range servers {
		up := 20e6
		if !uniform {
			up = 10e6 * float64(1+rng.next(5))
		}
		servers[j] = cluster.Server{Name: fmt.Sprintf("s%d", j), Uplink: up}
	}
	return servers
}

func TestPartitionVideosBalance(t *testing.T) {
	for _, tc := range []struct{ m, cells int }{{1, 4}, {5, 2}, {16, 4}, {100, 7}} {
		parts := PartitionVideos(tc.m, tc.cells)
		seen := make([]bool, tc.m)
		minLen, maxLen := tc.m+1, 0
		for _, part := range parts {
			if len(part) < minLen {
				minLen = len(part)
			}
			if len(part) > maxLen {
				maxLen = len(part)
			}
			for _, v := range part {
				if seen[v] {
					t.Fatalf("m=%d cells=%d: video %d duplicated", tc.m, tc.cells, v)
				}
				seen[v] = true
			}
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("m=%d cells=%d: video %d missing", tc.m, tc.cells, v)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("m=%d cells=%d: cell sizes range %d..%d", tc.m, tc.cells, minLen, maxLen)
		}
	}
}

func TestPlannerShards1IsSerial(t *testing.T) {
	streams := mkStreams(11, 24, 0.1)
	servers := mkServers(3, 6, false)
	want, err := sched.ScheduleMasked(streams, servers, nil)
	if err != nil {
		t.Fatalf("serial solve failed: %v", err)
	}
	got, st, err := Plan(context.Background(), streams, sched.NewSnapshot(0, servers, nil), Options{Shards: 1, Check: check.New(true, nil)})
	if err != nil {
		t.Fatalf("planner failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Shards=1 diverged from serial:\n%+v\n%+v", got, want)
	}
	if st.Shards != 1 || st.FellBack {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestPlannerShardedFeasibleDeterministic: at every shard count the plan
// places every stream, passes the exact verifiers, keeps each server to one
// cell unless the solve fell back, and is the same on a second run.
func TestPlannerShardedFeasibleDeterministic(t *testing.T) {
	streams := mkStreams(3, 48, 0.08)
	servers := mkServers(9, 12, false)
	snap := sched.NewSnapshot(5, servers, nil)
	for _, shards := range []int{2, 3, 4} {
		plan, st, err := Plan(context.Background(), streams, snap, Options{Shards: shards, Check: check.New(true, nil)})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, j := range plan.StreamServer {
			if j < 0 || j >= len(servers) {
				t.Fatalf("shards=%d: stream %d unplaced (server %d)", shards, i, j)
			}
		}
		if !sched.CheckConst1Servers(streams, plan.StreamServer, servers) ||
			!sched.CheckConst2Servers(streams, plan.StreamServer, servers) {
			t.Fatalf("shards=%d: plan violates exact feasibility", shards)
		}
		if !st.FellBack {
			if j := crossCellServer(streams, plan, shards); j >= 0 {
				t.Fatalf("shards=%d: server %d holds streams of two cells", shards, j)
			}
		}

		again, st2, err := Plan(context.Background(), streams, snap, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d second run: %v", shards, err)
		}
		if !reflect.DeepEqual(plan, again) || st != st2 {
			t.Fatalf("shards=%d: plan not deterministic across runs", shards)
		}
	}
}

// TestPlannerUniformUplinkCommInvariant: with uniform uplinks the total
// communication latency is placement-independent (Σ bits / u), so the
// sharded plan must match the serial scheduler's exactly.
func TestPlannerUniformUplinkCommInvariant(t *testing.T) {
	streams := mkStreams(21, 32, 0.08)
	servers := mkServers(0, 8, true)
	serial, err := sched.ScheduleMasked(streams, servers, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	plan, _, err := Plan(context.Background(), streams, sched.NewSnapshot(0, servers, nil), Options{Shards: 4})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	// Equal as exact sums; float accumulation order differs between the
	// serial solve and the per-cell sums, so compare to re-association
	// tolerance rather than bit equality.
	if d := math.Abs(plan.CommLatency - serial.CommLatency); d > 1e-9*math.Abs(serial.CommLatency) {
		t.Fatalf("uniform-uplink comm latency %v, serial %v", plan.CommLatency, serial.CommLatency)
	}
}

func TestPlannerRespectsMask(t *testing.T) {
	streams := mkStreams(9, 20, 0.2)
	servers := mkServers(2, 6, false)
	healthy := []bool{true, false, true, true, false, true}
	plan, _, err := Plan(context.Background(), streams, sched.NewSnapshot(1, servers, healthy),
		Options{Shards: 3, Check: check.New(true, nil)})
	if err != nil {
		t.Fatalf("masked sharded solve: %v", err)
	}
	for i, j := range plan.StreamServer {
		if j < 0 || !healthy[j] {
			t.Fatalf("stream %d on down/unplaced server %d", i, j)
		}
	}
}

func TestPlannerInfeasiblePropagates(t *testing.T) {
	// Overload: heavy procs that cannot fit one tiny server.
	p := sched.RatFromFPS(30)
	var streams []sched.Stream
	for i := 0; i < 8; i++ {
		streams = append(streams, sched.Stream{Video: i, Period: p, Proc: 0.03, Bits: 1e6})
	}
	servers := mkServers(1, 1, true)
	_, st, err := Plan(context.Background(), streams, sched.NewSnapshot(0, servers, nil), Options{Shards: 2})
	if err == nil {
		t.Fatal("overloaded cluster must be infeasible")
	}
	if !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if !st.FellBack {
		t.Fatalf("infeasibility must be decided by the serial fallback: %+v", st)
	}
}

// TestPlannerStrictAuditCatchesViolation feeds the checker a corrupted plan
// to prove the strict audit path is live end to end.
func TestVerifyPlanCatchesCorruption(t *testing.T) {
	streams := mkStreams(4, 12, 0.2)
	servers := mkServers(4, 4, true)
	plan, err := sched.ScheduleMasked(streams, servers, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	chk := check.New(true, nil)
	if err := chk.VerifyPlanServers(streams, plan, servers, nil); err != nil {
		t.Fatalf("valid plan flagged: %v", err)
	}
	// Corrupt: point one stream's server somewhere its group is not.
	bad := plan
	bad.StreamServer = append([]int(nil), plan.StreamServer...)
	bad.StreamServer[0] = (plan.StreamServer[0] + 1) % len(servers)
	if err := chk.VerifyPlanServers(streams, bad, servers, nil); err == nil {
		t.Fatal("corrupted plan passed VerifyPlanServers")
	}
}

// TestPlannerReuseAcrossSolves solves three workloads in a row on two
// clusters. On the tight one (36 streams, 10 servers, 3 cells) a slice
// cannot hold its cell, so every solve falls back and returns exactly the
// serial plan. On the roomy one every cell places on its own slice.
// Either way a solve depends on its inputs only.
func TestPlannerReuseAcrossSolves(t *testing.T) {
	for _, tc := range []struct {
		name     string
		servers  []cluster.Server
		fellBack bool
	}{
		{"tight", mkServers(5, 10, false), true},
		{"roomy", mkServers(5, 24, false), false},
	} {
		for round := 0; round < 3; round++ {
			streams := mkStreams(uint64(100+round), 36, 0.25)
			snap := sched.NewSnapshot(uint64(round), tc.servers, nil)
			plan, st, err := Plan(context.Background(), streams, snap, Options{Shards: 3})
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			if st.FellBack != tc.fellBack {
				t.Fatalf("%s round %d: fell back %v, want %v", tc.name, round, st.FellBack, tc.fellBack)
			}
			if st.FellBack {
				serial, err := sched.ScheduleMasked(streams, tc.servers, nil)
				if err != nil {
					t.Fatalf("%s round %d serial: %v", tc.name, round, err)
				}
				if st.Commits != 0 || !reflect.DeepEqual(plan, serial) {
					t.Fatalf("%s round %d: fallback is not the serial plan (commits %d)", tc.name, round, st.Commits)
				}
			} else if st.Commits != 3 {
				t.Fatalf("%s round %d: commits = %d, want one per cell", tc.name, round, st.Commits)
			}
			again, _, err := Plan(context.Background(), streams, snap, Options{Shards: 3})
			if err != nil || !reflect.DeepEqual(plan, again) {
				t.Fatalf("%s round %d: second solve diverged (%v)", tc.name, round, err)
			}
		}
	}
}

// TestCutSlices: the slices are disjoint, cover exactly the healthy
// servers, and give every cell with streams at least one server whenever
// there are at least as many healthy servers as cells.
func TestCutSlices(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := lcg(seed)
		streams := mkStreams(seed, 1+rng.next(40), 0.05+0.5*float64(rng.next(100))/100)
		n := 1 + rng.next(16)
		var healthy []bool
		if rng.next(2) == 0 {
			healthy = make([]bool, n)
			for j := range healthy {
				healthy[j] = rng.next(4) != 0
			}
		}
		snap := sched.NewSnapshot(0, mkServers(seed, n, false), healthy)
		shards := 2 + rng.next(4)
		cells := cellsOf(streams, shards)
		sl := cut(streams, cells, snap)
		if len(sl) != len(cells) {
			t.Fatalf("seed %d: %d slices for %d cells", seed, len(sl), len(cells))
		}
		owner := make([]int, n)
		for j := range owner {
			owner[j] = -1
		}
		for c, slice := range sl {
			if len(cells[c]) > 0 && len(slice) == 0 && len(snap.HealthyIndices(nil)) >= len(cells) {
				t.Fatalf("seed %d: cell %d has streams but no servers", seed, c)
			}
			for _, j := range slice {
				if healthy != nil && !healthy[j] {
					t.Fatalf("seed %d: down server %d in cell %d's slice", seed, j, c)
				}
				if owner[j] >= 0 {
					t.Fatalf("seed %d: server %d in the slices of cells %d and %d", seed, j, owner[j], c)
				}
				owner[j] = c
			}
		}
		for j, c := range owner {
			if c < 0 && (healthy == nil || healthy[j]) {
				t.Fatalf("seed %d: healthy server %d in no slice", seed, j)
			}
		}
		if again := cut(streams, cells, snap); !reflect.DeepEqual(sl, again) {
			t.Fatalf("seed %d: cut is not deterministic", seed)
		}
	}
}

// crossCellServer returns a server holding streams of two PartitionVideos
// cells under the plan, or -1.
func crossCellServer(streams []sched.Stream, plan sched.Plan, shards int) int {
	m := 0
	for _, s := range streams {
		m = max(m, s.Video+1)
	}
	videoCell := make([]int, m)
	for c, videos := range PartitionVideos(m, shards) {
		for _, v := range videos {
			videoCell[v] = c
		}
	}
	owner := map[int]int{}
	for i, j := range plan.StreamServer {
		c := videoCell[streams[i].Video]
		if prev, ok := owner[j]; ok && prev != c {
			return j
		}
		owner[j] = c
	}
	return -1
}
