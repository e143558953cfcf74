package shard

import (
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

func TestPartitionCoverageAndDeterminism(t *testing.T) {
	streams := mkStreams(7, 40, 0.3)
	for _, cells := range []int{1, 2, 3, 4, 7} {
		parts := Partition(streams, cells)
		if len(parts) != cells {
			t.Fatalf("cells=%d: got %d parts", cells, len(parts))
		}
		seen := make([]int, len(streams))
		videoCell := map[int]int{}
		for c, part := range parts {
			for _, i := range part {
				seen[i]++
				v := streams[i].Video
				if prev, ok := videoCell[v]; ok && prev != c {
					t.Fatalf("cells=%d: video %d split across cells %d and %d", cells, v, prev, c)
				}
				videoCell[v] = c
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("cells=%d: stream %d appears %d times", cells, i, n)
			}
		}
		if again := Partition(streams, cells); !reflect.DeepEqual(parts, again) {
			t.Fatalf("cells=%d: partition is not deterministic", cells)
		}
	}
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

// claimOf builds a claim over the given streams for tests.
func claimOf(t *testing.T, streams []sched.Stream, members []int, server int) Claim {
	t.Helper()
	var cl Claim
	cl.Server = server
	for _, i := range members {
		cl.Members = append(cl.Members, i)
		cl.GCD = sched.RatGCD(cl.GCD, streams[i].Period)
		if !cl.Sum.Add(streams[i].Proc) {
			t.Fatalf("stream %d: non-finite proc", i)
		}
		cl.Bits += streams[i].Bits
	}
	return cl
}

func TestArbiterCommitAndConflict(t *testing.T) {
	// Two streams at 10 fps with proc 0.06 each: one fits a 0.1 s gcd
	// budget, two exactly fill 0.12 > 0.1 and must conflict.
	p := sched.RatFromFPS(10)
	streams := []sched.Stream{
		{Video: 0, Period: p, Proc: 0.06, Bits: 1e6},
		{Video: 1, Period: p, Proc: 0.06, Bits: 2e6},
	}
	a := NewArbiter(sched.NewSnapshot(100, []cluster.Server{{Uplink: 10e6}, {Uplink: 10e6}}, nil))

	first := Proposal{Cell: 0, Version: a.Version(), Claims: []Claim{claimOf(t, streams, []int{0}, 0)}}
	if ok, _ := a.Commit(&first); !ok {
		t.Fatal("first commit rejected")
	}
	if a.Version() != 101 || a.Commits() != 1 {
		t.Fatalf("version %d commits %d after one commit", a.Version(), a.Commits())
	}

	conflicting := Proposal{Cell: 1, Version: 100, Claims: []Claim{claimOf(t, streams, []int{1}, 0)}}
	ok, conflict := a.Commit(&conflicting)
	if ok || conflict != 0 {
		t.Fatalf("overfull commit: ok=%v conflict=%d, want rejection on server 0", ok, conflict)
	}
	if a.Version() != 101 {
		t.Fatal("rejected commit must not bump the version")
	}

	// The loser retries on the free server and commits.
	retry := Proposal{Cell: 1, Version: a.Version(), Claims: []Claim{claimOf(t, streams, []int{1}, 1)}}
	if ok, _ := a.Commit(&retry); !ok {
		t.Fatal("retry on a free server rejected")
	}
	// Accumulate the expectation the way the arbiter does (claim by claim)
	// so float associativity cannot fail the comparison.
	wantComm := 1e6 / 10e6
	wantComm += 2e6 / 10e6
	if a.CommLatency() != wantComm {
		t.Fatalf("comm latency %v, want %v", a.CommLatency(), wantComm)
	}

	// Duplicate servers within one proposal are a protocol violation.
	dup := Proposal{Cell: 2, Version: a.Version(), Claims: []Claim{
		claimOf(t, streams, []int{0}, 1), claimOf(t, streams, []int{1}, 1),
	}}
	if ok, _ := a.Commit(&dup); ok {
		t.Fatal("duplicate-server proposal committed")
	}
}

// TestArbiterMergesAcrossCells commits two different cells' groups onto one
// server and checks the merged plan keeps the exact union constraint.
func TestArbiterMergesAcrossCells(t *testing.T) {
	p30, p15 := sched.RatFromFPS(30), sched.RatFromFPS(15)
	streams := []sched.Stream{
		{Video: 0, Period: p30, Proc: 0.012},
		{Video: 1, Period: p15, Proc: 0.014},
	}
	a := NewArbiter(sched.NewSnapshot(0, []cluster.Server{{Uplink: 10e6}}, nil))
	for cell := range streams {
		prop := Proposal{Cell: cell, Version: a.Version(), Claims: []Claim{claimOf(t, streams, []int{cell}, 0)}}
		if ok, _ := a.Commit(&prop); !ok {
			t.Fatalf("cell %d commit rejected", cell)
		}
	}
	plan := a.Plan(len(streams))
	if len(plan.Groups) != 1 || len(plan.Groups[0]) != 2 {
		t.Fatalf("expected one merged group of 2, got %+v", plan.Groups)
	}
	if !sched.CheckConst2Servers(streams, plan.StreamServer, make([]cluster.Server, 1)) {
		t.Fatal("merged placement violates exact Const2")
	}
	// 0.012+0.014 = 0.026 < gcd(1/30, 1/15) = 1/30 ≈ 0.0333: genuinely shared.
}

// clearTiming zeroes a Stats' wall-clock fields so deterministic solves can
// be compared with DeepEqual (the timings legitimately differ per run).
func clearTiming(st Stats) Stats {
	st.ProposeSeconds = 0
	st.CommitSeconds = 0
	return st
}

func TestPlannerShards1IsSerial(t *testing.T) {
	streams := mkStreams(11, 24, 0.1)
	servers := mkServers(3, 6, false)
	want, err := sched.ScheduleMasked(streams, servers, nil)
	if err != nil {
		t.Fatalf("serial solve failed: %v", err)
	}
	pl := New(Options{Shards: 1, Check: check.New(true, nil)})
	got, st, err := pl.Plan(streams, sched.NewSnapshot(0, servers, nil))
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

func TestPlannerShardedFeasibleDeterministicSequentialEqual(t *testing.T) {
	streams := mkStreams(3, 48, 0.08)
	servers := mkServers(9, 12, false)
	snap := sched.NewSnapshot(5, servers, nil)
	for _, shards := range []int{2, 3, 4} {
		chk := check.New(true, nil)
		pl := New(Options{Shards: shards, Check: chk})
		plan, st, err := pl.Plan(streams, snap)
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
			t.Fatalf("shards=%d: committed plan violates exact feasibility", shards)
		}
		if !st.FellBack && st.Commits == 0 {
			t.Fatalf("shards=%d: no commits and no fallback: %+v", shards, st)
		}

		again, st2, err := New(Options{Shards: shards}).Plan(streams, snap)
		if err != nil {
			t.Fatalf("shards=%d second run: %v", shards, err)
		}
		if !reflect.DeepEqual(plan, again) || !reflect.DeepEqual(clearTiming(st), clearTiming(st2)) {
			t.Fatalf("shards=%d: plan not deterministic across runs", shards)
		}

		seq, stSeq, err := New(Options{Shards: shards, Sequential: true}).Plan(streams, snap)
		if err != nil {
			t.Fatalf("shards=%d sequential: %v", shards, err)
		}
		if !reflect.DeepEqual(plan, seq) {
			t.Fatalf("shards=%d: parallel and sequential plans diverge:\n%+v\n%+v", shards, plan, seq)
		}
		if st.Conflicts != stSeq.Conflicts || st.Commits != stSeq.Commits || st.Rounds != stSeq.Rounds {
			t.Fatalf("shards=%d: parallel stats %+v vs sequential %+v", shards, st, stSeq)
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
	plan, _, err := New(Options{Shards: 4}).Plan(streams, sched.NewSnapshot(0, servers, nil))
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	// Equal as exact sums; float accumulation order differs between the
	// serial solve and per-claim commits, so compare to re-association
	// tolerance rather than bit equality.
	if d := math.Abs(plan.CommLatency - serial.CommLatency); d > 1e-9*math.Abs(serial.CommLatency) {
		t.Fatalf("uniform-uplink comm latency %v, serial %v", plan.CommLatency, serial.CommLatency)
	}
}

func TestPlannerRespectsMask(t *testing.T) {
	streams := mkStreams(9, 20, 0.2)
	servers := mkServers(2, 6, false)
	healthy := []bool{true, false, true, true, false, true}
	plan, _, err := New(Options{Shards: 3, Check: check.New(true, nil)}).
		Plan(streams, sched.NewSnapshot(1, servers, healthy))
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
	_, st, err := New(Options{Shards: 2}).Plan(streams, sched.NewSnapshot(0, servers, nil))
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

func TestPlannerReuseAcrossSolves(t *testing.T) {
	pl := New(Options{Shards: 3})
	servers := mkServers(5, 10, false)
	var prev sched.Plan
	for round := 0; round < 3; round++ {
		streams := mkStreams(uint64(100+round), 36, 0.25)
		plan, st, err := pl.Plan(streams, sched.NewSnapshot(uint64(round), servers, nil))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Every solve of a feasible workload commits one plan per cell
		// without the serial fallback, and every commit lands in exactly
		// one retry bucket.
		if st.FellBack || st.Commits != 3 {
			t.Fatalf("round %d: commits = %d (fell back: %v), want one per cell", round, st.Commits, st.FellBack)
		}
		mass := 0
		for _, n := range st.RetryHist {
			mass += n
		}
		if mass != st.Commits {
			t.Fatalf("round %d: retry histogram mass %d != commits %d", round, mass, st.Commits)
		}
		fresh, _, err := New(Options{Shards: 3}).Plan(streams, sched.NewSnapshot(uint64(round), servers, nil))
		if err != nil {
			t.Fatalf("round %d fresh: %v", round, err)
		}
		if !reflect.DeepEqual(plan, fresh) {
			t.Fatalf("round %d: reused planner diverged from fresh planner", round)
		}
		prev = plan
	}
	_ = prev
}
