package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// churnBaseline builds and adopts a small feasible baseline: three videos
// at 10/15/30 fps on two servers.
func churnBaseline(t *testing.T) (*Replanner, []Stream, []cluster.Server) {
	t.Helper()
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.020, Bits: 1e6},
		{Video: 1, Period: RatFromFPS(15), Proc: 0.015, Bits: 1e6},
		{Video: 2, Period: RatFromFPS(30), Proc: 0.008, Bits: 1e6},
	}
	servers := []cluster.Server{{Uplink: 20e6}, {Uplink: 25e6}}
	rp := NewReplanner()
	if _, _, err := rp.Replan(streams, servers, nil); err != nil {
		t.Fatalf("baseline replan: %v", err)
	}
	return rp, streams, servers
}

// TestAdoptRejectsBadMembership is the regression for the baseline-
// corruption bug: Adopt used to install any grouping verbatim, so a plan
// whose membership did not exactly cover the stream slice (stale index
// after an eviction, duplicate, gap) silently wired the wrong stream into
// a group — or indexed out of range on the next Incremental. Bad coverage
// must invalidate the baseline instead.
func TestAdoptRejectsBadMembership(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(10), Proc: 0.01},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.01},
	}
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"out_of_range", [][]int{{0, 5}, {1}}},
		{"negative", [][]int{{-1}, {0, 1}}},
		{"duplicate", [][]int{{0, 1}, {1}}},
		{"uncovered", [][]int{{0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rp, base, servers := churnBaseline(t)
			if rp.Streams() == nil {
				t.Fatal("baseline invalid before Adopt")
			}
			rp.Adopt(streams, Plan{Groups: tc.groups})
			if rp.Streams() != nil {
				t.Fatal("bad membership left the baseline valid")
			}
			if _, ok := rp.Incremental(base, servers, nil); ok {
				t.Fatal("Incremental ran on a corrupted baseline")
			}
		})
	}
}

// TestEvictWithoutResolve: departures shrink the frozen grouping in place
// — no full solve — and the next incremental replan still yields an
// exactly feasible plan over the survivors.
func TestEvictWithoutResolve(t *testing.T) {
	rp, streams, servers := churnBaseline(t)
	if ok := rp.Evict([]bool{false, true, false}); !ok {
		t.Fatal("evict declined on a valid baseline")
	}
	survivors := []Stream{streams[0], streams[2]}
	if got := len(rp.Streams()); got != 2 {
		t.Fatalf("baseline holds %d streams after evict, want 2", got)
	}
	plan, ok := rp.Incremental(survivors, servers, nil)
	if !ok {
		t.Fatal("incremental declined after evict")
	}
	if !CheckConst1Servers(survivors, plan.StreamServer, servers) ||
		!CheckConst2Servers(survivors, plan.StreamServer, servers) {
		t.Fatalf("post-evict plan infeasible: %+v", plan)
	}
	// Wrong mask length must not touch the baseline.
	if rp.Evict([]bool{true}) {
		t.Fatal("evict accepted a mask of the wrong length")
	}
}

// TestAdmitExactBudgetBoundary pins the exactness of the admission
// arithmetic: a stream that fills the group's Const2 budget to exactly
// Σ proc = gcd is admitted, and any additional processing load — even
// 1e-12 of headroom gone — is declined rather than rounded in. Every
// quantity is dyadic (8 fps → gcd 1/8, proc 0.0625 = 1/16), so the sums
// are exact and the boundary is sharp.
func TestAdmitExactBudgetBoundary(t *testing.T) {
	streams := []Stream{{Video: 0, Period: RatFromFPS(8), Proc: 0.0625, Bits: 1e6}}
	servers := []cluster.Server{{Uplink: 20e6}}
	rp := NewReplanner()
	if _, _, err := rp.Replan(streams, servers, nil); err != nil {
		t.Fatal(err)
	}
	// 0.0625 + 0.0625 == 0.125 == gcd exactly: admit.
	fill := Stream{Video: 1, Period: RatFromFPS(8), Proc: 0.0625, Bits: 1e6}
	g, ok := rp.Admit(fill, servers, nil)
	if !ok {
		t.Fatalf("exact-fit admission declined (group %d)", g)
	}
	over := Stream{Video: 2, Period: RatFromFPS(8), Proc: 1e-12, Bits: 1}
	if _, ok := rp.Admit(over, servers, nil); ok {
		t.Fatal("admission above the exact budget accepted")
	}
}

// TestAdmitOpensGroupOnlyWithFreeServer: an incompatible period opens a
// singleton group only while a healthy server column remains.
func TestAdmitOpensGroupOnlyWithFreeServer(t *testing.T) {
	streams := []Stream{{Video: 0, Period: RatFromFPS(10), Proc: 0.02, Bits: 1e6}}
	servers := []cluster.Server{{Uplink: 20e6}, {Uplink: 20e6}}
	rp := NewReplanner()
	if _, _, err := rp.Replan(streams, servers, nil); err != nil {
		t.Fatal(err)
	}
	// 7 fps is incompatible with the 10 fps gcd in both directions.
	odd := Stream{Video: 1, Period: Rational{Num: 1, Den: 7}, Proc: 0.02, Bits: 1e6}
	if _, ok := rp.Admit(odd, servers, nil); !ok {
		t.Fatal("arrival declined with a free server available")
	}
	odd2 := Stream{Video: 2, Period: Rational{Num: 1, Den: 11}, Proc: 0.02, Bits: 1e6}
	if _, ok := rp.Admit(odd2, servers, nil); ok {
		t.Fatal("arrival opened a third group on a two-server cluster")
	}
	// All groups occupied AND one server masked: even the compatible-period
	// path must respect the mask through the later Incremental.
	all := rp.Streams()
	plan, ok := rp.Incremental(append([]Stream(nil), all...), servers, nil)
	if !ok {
		t.Fatal("incremental declined after admissions")
	}
	if !CheckConst2Servers(all, plan.StreamServer, servers) {
		t.Fatalf("post-admit plan violates Const2: %+v", plan)
	}
}

// TestAdmitHeteroSpeedBudget: a 2× server stretches the exact Const2
// budget to 2·gcd, so a workload that overfills a speed-1 group admits on
// the fast machine — and the speed-aware checker agrees while the
// speed-blind one (correctly) flags it against a unit budget.
func TestAdmitHeteroSpeedBudget(t *testing.T) {
	streams := []Stream{{Video: 0, Period: RatFromFPS(10), Proc: 0.09, Bits: 1e6}}
	fast := []cluster.Server{{Uplink: 20e6, SpeedFactor: 2}}
	rp := NewReplanner()
	if _, _, err := rp.Replan(streams, fast, nil); err != nil {
		t.Fatal(err)
	}
	// Σ proc would be 0.18 > 0.1 = gcd, but ≤ 0.2 = gcd·speed.
	arr := Stream{Video: 1, Period: RatFromFPS(10), Proc: 0.09, Bits: 1e6}
	if _, ok := rp.Admit(arr, fast, nil); !ok {
		t.Fatal("speed-2 admission declined")
	}
	all := append([]Stream(nil), rp.Streams()...)
	plan, ok := rp.Incremental(all, fast, nil)
	if !ok {
		t.Fatal("incremental declined after speed-2 admission")
	}
	if !CheckConst2Servers(all, plan.StreamServer, fast) {
		t.Fatal("speed-aware Const2 rejects the speed-2 plan")
	}
	if CheckConst2Servers(all, plan.StreamServer, make([]cluster.Server, len(fast))) {
		t.Fatal("Const2 at speed 1 accepted a load only a 2x server can carry")
	}

	// The same admission against a speed-1 cluster must decline.
	slow := []cluster.Server{{Uplink: 20e6}}
	rp2 := NewReplanner()
	if _, _, err := rp2.Replan(streams, slow, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := rp2.Admit(arr, slow, nil); ok {
		t.Fatal("speed-1 admission accepted a 2x load")
	}
}

// FuzzIncrementalAdmitVsResolve differentially fuzzes the churn fast path:
// random baseline, random arrival. Whenever Admit accepts and the
// incremental re-map settles a placement, that plan must pass the exact
// speed-aware Const1/Const2 verifiers (independent code — per-server sums
// in big.Rat vs the replanner's pooled dyadic accumulator), place every
// stream on a healthy server, and whenever the fast path declines the
// arrival, a full resolve over the same workload must remain available as
// the fallback the runtime takes (or itself prove the workload infeasible).
func FuzzIncrementalAdmitVsResolve(f *testing.F) {
	f.Add(uint64(1), 4, 2, uint8(0), uint8(10))
	f.Add(uint64(42), 8, 4, uint8(1), uint8(60))
	f.Add(uint64(7), 2, 3, uint8(4), uint8(200))
	f.Add(uint64(99), 6, 3, uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, m, n int, downBits, arrival uint8) {
		m = 1 + abs(m)%10
		n = 1 + abs(n)%5
		fps := []int64{5, 6, 10, 15, 25, 30}
		speeds := []float64{0.5, 0.75, 1, 1.25, 1.5, 2}
		rng := seed
		next := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(k))
		}
		base := make([]Stream, m)
		for i := range base {
			p := RatFromFPS(fps[next(len(fps))])
			base[i] = Stream{
				Video:  i,
				Period: p,
				Proc:   p.Float() * (0.05 + 0.5*float64(next(100))/100),
				Bits:   1e6 * (1 + float64(next(20))),
			}
		}
		servers := make([]cluster.Server, n)
		for j := range servers {
			servers[j] = cluster.Server{
				Name:        fmt.Sprintf("s%d", j),
				Uplink:      10e6 * float64(1+next(5)),
				SpeedFactor: speeds[next(len(speeds))],
			}
		}
		var healthy []bool
		if downBits != 0 {
			healthy = make([]bool, n)
			alive := 0
			for j := range healthy {
				healthy[j] = downBits&(1<<j) == 0
				if healthy[j] {
					alive++
				}
			}
			if alive == 0 {
				healthy[next(n)] = true
			}
		}

		rp := NewReplanner()
		if _, _, err := rp.Replan(base, servers, healthy); err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("baseline: %v", err)
			}
			return
		}

		p := RatFromFPS(fps[int(arrival)%len(fps)])
		arr := Stream{
			Video:  m,
			Period: p,
			Proc:   p.Float() * (0.02 + 0.9*float64(next(100))/100),
			Bits:   1e6 * (1 + float64(next(20))),
		}
		_, admitted := rp.Admit(arr, servers, healthy)
		all := append(append([]Stream(nil), base...), arr)

		if admitted {
			plan, ok := rp.Incremental(all, servers, healthy)
			if !ok {
				// Admission is a budget-level necessary condition; the
				// Hungarian re-map may still fail to realize a placement
				// (e.g. the only roomy-enough server is slow). The runtime
				// then invalidates and falls back whole — nothing to check.
				return
			}
			for i := range all {
				j := plan.StreamServer[i]
				if j < 0 || j >= n {
					t.Fatalf("stream %d unplaced (server %d)", i, j)
				}
				if healthy != nil && !healthy[j] {
					t.Fatalf("stream %d on down server %d", i, j)
				}
			}
			if !CheckConst1Servers(all, plan.StreamServer, servers) {
				t.Fatalf("admitted plan violates speed-aware Const1: %+v", plan)
			}
			if !CheckConst2Servers(all, plan.StreamServer, servers) {
				t.Fatalf("admitted plan violates speed-aware Const2: %+v", plan)
			}
			return
		}

		// Declined: the runtime's fallback is a full resolve of the same
		// workload. It may succeed (the heuristic regroups from scratch) or
		// report infeasibility — anything else is a bug.
		if _, err := ScheduleMasked(all, servers, healthy); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("full-resolve fallback: %v", err)
		}
	})
}
