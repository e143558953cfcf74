package sched

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func servers(uplinks ...float64) []cluster.Server {
	out := make([]cluster.Server, len(uplinks))
	for i, u := range uplinks {
		out[i] = cluster.Server{Name: "e", Uplink: u}
	}
	return out
}

// zeroJitterSpecs is the plan as the simulator runs it: every stream at
// its Theorem 1 offset (Plan.Offsets) on its planned server.
func zeroJitterSpecs(plan Plan, streams []Stream, srvs []cluster.Server) ([]cluster.StreamSpec, cluster.Assignment) {
	offsets := plan.Offsets(streams, srvs)
	specs := make([]cluster.StreamSpec, len(streams))
	for i, s := range streams {
		specs[i] = cluster.StreamSpec{Period: s.Period.Float(), Offset: offsets[i], Proc: s.Proc, Bits: s.Bits}
	}
	return specs, plan.StreamServer
}

func TestSplitHighRate(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.05},  // s·p = 0.5, keep
		{Video: 1, Period: RatFromFPS(30), Proc: 0.096}, // s·p = 2.88 → 3 subs
	}
	out := SplitHighRate(streams)
	if len(out) != 4 {
		t.Fatalf("split produced %d streams, want 4", len(out))
	}
	if out[0] != streams[0] {
		t.Fatal("low-rate stream modified")
	}
	for k := 1; k <= 3; k++ {
		s := out[k]
		if s.Video != 1 || s.Sub != k-1 {
			t.Fatalf("sub-stream %d mislabeled: %+v", k, s)
		}
		if s.Period.Cmp(Rat(1, 10)) != 0 {
			t.Fatalf("sub-stream period %v, want 1/10", s.Period)
		}
		// Each sub-stream alone no longer self-queues.
		if s.Proc > s.Period.Float() {
			t.Fatalf("sub-stream still overloaded: p=%v T=%v", s.Proc, s.Period.Float())
		}
	}
}

func TestSplitExactBoundaryNotSplit(t *testing.T) {
	// s·p = exactly 1: one server can just keep up; no split. The period
	// and processing time are both dyadic (1/8 s) so the boundary is exact
	// in float64 too. (0.1 against fps 10 is NOT on the boundary: float64
	// 0.1 is marginally above the rational 1/10, so that stream genuinely
	// self-queues and must split — see TestSplitExactBoundary below.)
	streams := []Stream{{Period: RatFromFPS(8), Proc: 0.125}}
	if out := SplitHighRate(streams); len(out) != 1 {
		t.Fatalf("boundary stream split into %d", len(out))
	}
}

func TestGroupStreamsRespectsTheorem3(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.03},
		{Video: 1, Period: RatFromFPS(5), Proc: 0.04}, // multiple of 1/10
		{Video: 2, Period: RatFromFPS(10), Proc: 0.02},
		{Video: 3, Period: RatFromFPS(30), Proc: 0.02},
		{Video: 4, Period: RatFromFPS(15), Proc: 0.01}, // multiple of 1/30
	}
	groups, err := GroupStreams(streams, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Verify conditions (a) and (b) of Theorem 3 per group.
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		min := streams[g[0]].Period
		var proc float64
		for _, si := range g {
			if streams[si].Period.Cmp(min) < 0 {
				min = streams[si].Period
			}
			proc += streams[si].Proc
		}
		for _, si := range g {
			if !streams[si].Period.IsMultipleOf(min) {
				t.Fatalf("group %v: period %v not multiple of min %v", g, streams[si].Period, min)
			}
		}
		if proc > min.Float()+1e-12 {
			t.Fatalf("group %v: Σp = %v > Tmin = %v", g, proc, min.Float())
		}
	}
}

func TestGroupStreamsInfeasible(t *testing.T) {
	// Two streams each almost filling a period, but only one server.
	streams := []Stream{
		{Period: RatFromFPS(10), Proc: 0.09},
		{Period: RatFromFPS(10), Proc: 0.09},
	}
	_, err := GroupStreams(streams, 1)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := GroupStreams(streams, 0); err == nil {
		t.Fatal("0 servers should fail")
	}
}

func TestScheduleSatisfiesBothConstraints(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.05, Bits: 2e5},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.04, Bits: 3e5},
		{Video: 2, Period: RatFromFPS(15), Proc: 0.03, Bits: 1e5},
		{Video: 3, Period: RatFromFPS(30), Proc: 0.02, Bits: 4e5},
	}
	srvs := servers(1e7, 2e7, 3e7)
	plan, err := Schedule(streams, srvs)
	if err != nil {
		t.Fatal(err)
	}
	if !CheckConst1Servers(streams, plan.StreamServer, srvs) {
		t.Fatal("Const1 violated")
	}
	if !CheckConst2Servers(streams, plan.StreamServer, srvs) {
		t.Fatal("Const2 violated")
	}
	for i, j := range plan.StreamServer {
		if j < 0 || j >= len(srvs) {
			t.Fatalf("stream %d unassigned: %d", i, j)
		}
	}
}

func TestHungarianMappingMinimizesCommLatency(t *testing.T) {
	// One heavy group and one light group; the heavy one must get the fat
	// uplink.
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.09, Bits: 1e6}, // heavy
		{Video: 1, Period: RatFromFPS(10), Proc: 0.09, Bits: 1e4}, // light
	}
	srvs := servers(1e6, 1e8) // server 1 is 100× faster
	plan, err := Schedule(streams, srvs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StreamServer[0] != 1 {
		t.Fatalf("heavy stream on slow server: %v", plan.StreamServer)
	}
	// Optimal total comm latency: 1e6/1e8 + 1e4/1e6 = 0.02.
	if math.Abs(plan.CommLatency-0.02) > 1e-12 {
		t.Fatalf("comm latency %v, want 0.02", plan.CommLatency)
	}
}

func TestScheduleZeroJitterInSimulation(t *testing.T) {
	// End-to-end: Algorithm 1's plan, with Theorem 1 offsets, runs with
	// exactly zero jitter in the discrete-event simulator.
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.06, Bits: 2e5},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.03, Bits: 3e5},
		{Video: 2, Period: RatFromFPS(10), Proc: 0.04, Bits: 1e5},
		{Video: 3, Period: RatFromFPS(15), Proc: 0.01, Bits: 2e5},
		{Video: 4, Period: RatFromFPS(30), Proc: 0.02, Bits: 1e5},
	}
	srvs := servers(1e7, 2e7, 3e7)
	plan, err := Schedule(streams, srvs)
	if err != nil {
		t.Fatal(err)
	}
	specs, assign := zeroJitterSpecs(plan, streams, srvs)
	// Epoch -1 runs the planned costs themselves. The others treat the plan
	// as made at a 1.06× worst-case margin and run drifted true costs below
	// it: Theorem 1's offsets stay zero-jitter when frames finish early,
	// which is what lets a replan keep a grouping under drift.
	for epoch := -1; epoch < 4; epoch++ {
		run := append([]cluster.StreamSpec(nil), specs...)
		if epoch >= 0 {
			for k := range run {
				run[k].Proc = specs[k].Proc / 1.06 * (1 + 0.06*math.Sin(float64(epoch)+0.618*float64(k)))
			}
		}
		results := cluster.SimulateCluster(run, srvs, assign, 30)
		if j := cluster.MaxJitter(results); j > cluster.JitterEps {
			t.Fatalf("epoch %d: simulated jitter %v under Algorithm 1 plan", epoch, j)
		}
		for _, r := range results {
			if r.MaxWait > cluster.JitterEps {
				t.Fatalf("epoch %d: queueing %v under Algorithm 1 plan", epoch, r.MaxWait)
			}
		}
	}
}

// Property: whenever Algorithm 1 returns a plan for random fps/proc
// streams, the plan satisfies Const2 (and hence Const1 by Theorem 2), and
// the DES confirms zero jitter.
func TestSchedulePropertyZeroJitter(t *testing.T) {
	fpsChoices := []int64{5, 6, 10, 15, 25, 30}
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		m := 2 + next(6)
		streams := make([]Stream, m)
		for i := range streams {
			fps := fpsChoices[next(len(fpsChoices))]
			streams[i] = Stream{
				Video:  i,
				Period: RatFromFPS(fps),
				Proc:   0.004 + float64(next(20))*0.002,
				Bits:   float64(1+next(10)) * 1e4,
			}
		}
		srvs := servers(1e7, 1.5e7, 2e7, 2.5e7, 3e7)
		plan, err := Schedule(SplitHighRate(streams), srvs)
		if err != nil {
			return true // infeasible is an acceptable outcome
		}
		split := SplitHighRate(streams)
		if !CheckConst1Servers(split, plan.StreamServer, srvs) ||
			!CheckConst2Servers(split, plan.StreamServer, srvs) {
			return false
		}
		specs, assign := zeroJitterSpecs(plan, split, srvs)
		results := cluster.SimulateCluster(specs, srvs, assign, 10)
		return cluster.MaxJitter(results) <= cluster.JitterEps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConstsRejectUnassigned(t *testing.T) {
	streams := []Stream{{Period: RatFromFPS(10), Proc: 0.01}}
	if CheckConst1Servers(streams, []int{-1}, make([]cluster.Server, 1)) || CheckConst2Servers(streams, []int{-1}, make([]cluster.Server, 1)) {
		t.Fatal("unassigned stream must fail constraint checks")
	}
}

func TestCheckConst1Violation(t *testing.T) {
	streams := []Stream{
		{Period: RatFromFPS(10), Proc: 0.08},
		{Period: RatFromFPS(10), Proc: 0.08},
	}
	// Both on server 0: Σ p·s = 1.6 > 1.
	if CheckConst1Servers(streams, []int{0, 0}, make([]cluster.Server, 1)) {
		t.Fatal("Const1 violation undetected")
	}
}

func TestCheckConst2Violation(t *testing.T) {
	streams := []Stream{
		{Period: Rat(3, 10), Proc: 0.12},
		{Period: Rat(1, 5), Proc: 0.05},
	}
	// gcd(0.3, 0.2) = 0.1 < 0.17 = Σp.
	if CheckConst2Servers(streams, []int{0, 0}, make([]cluster.Server, 1)) {
		t.Fatal("Const2 violation undetected")
	}
}

func BenchmarkSchedule10Streams(b *testing.B) {
	fps := []int64{5, 6, 10, 15, 25, 30}
	streams := make([]Stream, 10)
	for i := range streams {
		streams[i] = Stream{
			Video:  i,
			Period: RatFromFPS(fps[i%len(fps)]),
			Proc:   0.005 + float64(i)*0.002,
			Bits:   1e5,
		}
	}
	srvs := servers(1e7, 2e7, 3e7, 4e7, 5e7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(streams, srvs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanOffsetsPerGroupLayout pins Plan.Offsets bit-exactly to Theorem 1's
// layout of each group on its own server — cluster.ZeroJitterOffsetsOn over
// the group's members in group order — on servers of mixed speed and
// uplink, and checks that the layout runs jitter-free in the simulator.
func TestPlanOffsetsPerGroupLayout(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.06, Bits: 2e5},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.03, Bits: 3e5},
		{Video: 2, Period: RatFromFPS(10), Proc: 0.04, Bits: 1e5},
		{Video: 3, Period: RatFromFPS(15), Proc: 0.01, Bits: 2e5},
		{Video: 4, Period: RatFromFPS(30), Proc: 0.02, Bits: 1e5},
	}
	srvs := []cluster.Server{
		{Name: "slow", Uplink: 1e7, SpeedFactor: 0.75},
		{Name: "fast", Uplink: 2e7, SpeedFactor: 2},
		{Name: "base", Uplink: 3e7},
	}
	plan, err := Schedule(streams, srvs)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Offsets(streams, srvs)
	for g, members := range plan.Groups {
		sub := make([]cluster.StreamSpec, len(members))
		for k, si := range members {
			sub[k] = cluster.StreamSpec{Period: streams[si].Period.Float(), Proc: streams[si].Proc, Bits: streams[si].Bits}
		}
		for k, s := range cluster.ZeroJitterOffsetsOn(sub, srvs[plan.GroupServer[g]]) {
			if math.Float64bits(got[members[k]]) != math.Float64bits(s.Offset) {
				t.Fatalf("stream %d: offset %v, per-group layout %v", members[k], got[members[k]], s.Offset)
			}
		}
	}
	specs, assign := zeroJitterSpecs(plan, streams, srvs)
	if j := cluster.MaxJitter(cluster.SimulateCluster(specs, srvs, assign, 30)); j > cluster.JitterEps {
		t.Fatalf("simulated jitter %v under Plan.Offsets", j)
	}
}
