package sched

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
)

// oldFloatConst2 reproduces the pre-audit float-tolerance check so the
// regression tests below can demonstrate exactly which marginal plans it
// wrongly accepted.
func oldFloatConst2(streams []Stream, streamServer []int, n int) bool {
	procSum := make([]float64, n)
	gcds := make([]Rational, n)
	for i, s := range streams {
		j := streamServer[i]
		if j < 0 {
			return false
		}
		procSum[j] += s.Proc
		gcds[j] = RatGCD(gcds[j], s.Period)
	}
	for j := 0; j < n; j++ {
		if gcds[j].Num == 0 {
			continue
		}
		if procSum[j] > gcds[j].Float()+1e-12 {
			return false
		}
	}
	return true
}

// TestSplitExactBoundary pins the under-split bug: s·p marginally above an
// integer must round the sub-stream count UP, or the sub-streams still
// self-queue.
func TestSplitExactBoundary(t *testing.T) {
	// Proc = 3 + one ulp seconds on a 1-second period: s·p = 3+ε > 3. The
	// old ⌈sp − 1e-12⌉ produced 3 sub-streams of period 3 s, each still
	// carrying p > T. Exact ceiling must produce 4.
	s := Stream{Period: Rat(1, 1), Proc: math.Nextafter(3, 4)}
	out := SplitHighRate([]Stream{s})
	if len(out) != 4 {
		t.Fatalf("sp=3+ulp split into %d sub-streams, want 4", len(out))
	}
	for _, sub := range out {
		// Each sub-stream must satisfy p ≤ T exactly, i.e. survive the
		// split-it-first precondition of GroupStreams.
		if _, err := GroupStreams([]Stream{sub}, 1); err != nil {
			t.Fatalf("sub-stream still self-queues after split: %v", err)
		}
	}

	// An exactly-integer ratio (dyadic on both sides) must not over-split.
	exact := Stream{Period: Rat(1, 4), Proc: 0.75} // s·p = 3 exactly
	if out := SplitHighRate([]Stream{exact}); len(out) != 3 {
		t.Fatalf("sp=3 exact split into %d sub-streams, want 3", len(out))
	}

	// float64 0.1 is strictly above the rational 1/10, so fps-10 at
	// p=0.1 is genuinely (marginally) overloaded and must split.
	tenth := Stream{Period: RatFromFPS(10), Proc: 0.1}
	out = SplitHighRate([]Stream{tenth})
	if len(out) != 2 {
		t.Fatalf("p=0.1f on T=1/10 split into %d sub-streams, want 2", len(out))
	}
}

// TestCheckConst2Exact pins the acceptance bug: a plan whose Σ pᵢ exceeds
// the period gcd by less than the old 1e-12 tolerance passed the float
// check while actually self-queueing. The exact check must reject it.
func TestCheckConst2Exact(t *testing.T) {
	// Two fps-10 streams with p = 0.05 each. float64 0.05 is marginally
	// above the rational 1/20, so Σp = 2·0.05f is marginally above 1/10 =
	// gcd: infeasible by ~5.6e-18 s — far inside the old tolerance.
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.05},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.05},
	}
	assign := []int{0, 0}
	if !oldFloatConst2(streams, assign, 1) {
		t.Fatal("setup broken: the old float check was supposed to accept this plan")
	}
	if CheckConst2Servers(streams, assign, make([]cluster.Server, 1)) {
		t.Fatal("exact CheckConst2 accepted a plan with Σp > gcd")
	}

	// Dyadic procs summing exactly to the gcd stay feasible.
	ok := []Stream{
		{Video: 0, Period: RatFromFPS(8), Proc: 0.0625},
		{Video: 1, Period: RatFromFPS(8), Proc: 0.0625},
	}
	if !CheckConst2Servers(ok, assign, make([]cluster.Server, 1)) {
		t.Fatal("exact CheckConst2 rejected Σp = gcd exactly")
	}
}

// TestCheckConst1Exact mirrors the Const2 fix for the load check: a server
// at utilization 1+ulp must fail, utilization exactly 1 must pass.
func TestCheckConst1Exact(t *testing.T) {
	over := []Stream{{Period: Rat(1, 1), Proc: math.Nextafter(1, 2)}}
	// Keep it a pure Const1 test: the period is 1 s so Const2 holds iff
	// Const1 does; check the load side directly.
	if CheckConst1Servers(over, []int{0}, make([]cluster.Server, 1)) {
		t.Fatal("exact CheckConst1 accepted utilization 1+ulp")
	}
	full := []Stream{
		{Period: Rat(1, 2), Proc: 0.25},
		{Period: Rat(1, 2), Proc: 0.25},
	}
	if !CheckConst1Servers(full, []int{0, 0}, make([]cluster.Server, 1)) {
		t.Fatal("exact CheckConst1 rejected utilization exactly 1")
	}
	if CheckConst1Servers(full, []int{0, 3}, make([]cluster.Server, 1)) {
		t.Fatal("CheckConst1 accepted an out-of-range assignment")
	}
}

// TestGroupStreamsExactAdmission: the greedy grouping must not pack a group
// past its minimum period, even by an ulp, so that every plan Algorithm 1
// emits passes the exact checks with no tolerance.
func TestGroupStreamsExactAdmission(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.05},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.05},
	}
	// One server: Σp = 2·0.05f > 1/10 exactly → infeasible.
	if _, err := GroupStreams(streams, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("marginally overloaded group accepted (err=%v)", err)
	}
	// Two servers: one stream each is fine.
	groups, err := GroupStreams(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(streams))
	for g, members := range groups {
		for _, si := range members {
			assign[si] = g
		}
	}
	if !CheckConst2Servers(streams, assign, make([]cluster.Server, 2)) || !CheckConst1Servers(streams, assign, make([]cluster.Server, 2)) {
		t.Fatal("accepted grouping fails the exact checks")
	}
	// Non-finite processing times are rejected, not grouped.
	if _, err := GroupStreams([]Stream{{Period: Rat(1, 1), Proc: math.NaN()}}, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("NaN proc accepted (err=%v)", err)
	}
}

// TestExactGroupMatchesChecker: every grouping the backtracking reference
// accepts must pass the exact checker, and it must reject the marginal
// instance above.
func TestExactGroupMatchesChecker(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.05},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.05},
	}
	if _, ok := ExactGroup(streams, 1); ok {
		t.Fatal("ExactGroup accepted a Σp > gcd instance")
	}
	groups, ok := ExactGroup(streams, 2)
	if !ok {
		t.Fatal("ExactGroup rejected a feasible instance")
	}
	assign := make([]int, len(streams))
	for i := range assign {
		assign[i] = -1
	}
	for g, members := range groups {
		for _, si := range members {
			assign[si] = g
		}
	}
	if !CheckConst2Servers(streams, assign, make([]cluster.Server, 2)) {
		t.Fatal("ExactGroup grouping fails exact CheckConst2")
	}
}
