package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func TestExactGroupTrivial(t *testing.T) {
	if _, ok := ExactGroup(nil, 2); !ok {
		t.Fatal("empty instance must be feasible")
	}
	if _, ok := ExactGroup([]Stream{{Period: RatFromFPS(10), Proc: 0.01}}, 0); ok {
		t.Fatal("zero groups must be infeasible for non-empty input")
	}
}

func TestExactGroupSatisfiesConst2(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.05},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.04},
		{Video: 2, Period: RatFromFPS(15), Proc: 0.03},
		{Video: 3, Period: RatFromFPS(30), Proc: 0.02},
	}
	groups, ok := ExactGroup(streams, 3)
	if !ok {
		t.Fatal("instance should be feasible")
	}
	assign := make([]int, len(streams))
	for g, members := range groups {
		for _, si := range members {
			assign[si] = g
		}
	}
	if !CheckConst2Servers(streams, assign, make([]cluster.Server, 3)) {
		t.Fatal("exact grouping violates Const2")
	}
}

func TestExactAcceptsConst2OnlyInstances(t *testing.T) {
	// Periods 0.3 and 0.2: gcd = 0.1. Procs 0.04 + 0.05 = 0.09 ≤ 0.1, so
	// Const2 holds on one server — but 0.3 is NOT a multiple of 0.2, so
	// Theorem 3's condition (a) fails and Algorithm 1 needs two groups.
	streams := []Stream{
		{Video: 0, Period: Rat(3, 10), Proc: 0.04},
		{Video: 1, Period: Rat(1, 5), Proc: 0.05},
	}
	if _, ok := ExactGroup(streams, 1); !ok {
		t.Fatal("exact search must accept a Const2-feasible single group")
	}
	if _, err := GroupStreams(streams, 1); err == nil {
		t.Fatal("heuristic should reject this instance on one server (Theorem 3 is stricter)")
	}
}

func TestExactInfeasibleDetected(t *testing.T) {
	streams := []Stream{
		{Period: RatFromFPS(10), Proc: 0.09},
		{Period: RatFromFPS(10), Proc: 0.09},
	}
	if _, ok := ExactGroup(streams, 1); ok {
		t.Fatal("overfull instance accepted")
	}
}

func TestExactScheduleProducesValidPlan(t *testing.T) {
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.05, Bits: 2e5},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.04, Bits: 3e5},
		{Video: 2, Period: RatFromFPS(30), Proc: 0.02, Bits: 1e5},
	}
	srvs := []cluster.Server{{Uplink: 1e7}, {Uplink: 2e7}}
	groups, ok := ExactGroup(streams, len(srvs))
	if !ok {
		t.Fatal("feasible instance rejected")
	}
	plan, err := MapGroups(groups, streams, srvs)
	if err != nil {
		t.Fatal(err)
	}
	if !CheckConst2Servers(streams, plan.StreamServer, srvs) {
		t.Fatal("exact plan violates Const2")
	}
}

// Property 1: the heuristic never accepts an instance the exact search
// rejects (heuristic-feasible ⊆ exact-feasible).
// Property 2: exact groupings always satisfy Const2 and simulate
// jitter-free under Theorem 1 offsets.
func TestExactVsHeuristicProperty(t *testing.T) {
	fpsChoices := []int64{5, 6, 10, 15, 25, 30}
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		m := 2 + next(5)
		streams := make([]Stream, m)
		for i := range streams {
			streams[i] = Stream{
				Video:  i,
				Period: RatFromFPS(fpsChoices[next(len(fpsChoices))]),
				Proc:   0.004 + float64(next(15))*0.003,
				Bits:   1e5,
			}
		}
		n := 2 + next(3)
		exact, exOK := ExactGroup(streams, n)
		_, hErr := GroupStreams(streams, n)
		if hErr == nil && !exOK {
			return false // heuristic accepted what exact rejected
		}
		if exOK {
			assign := make([]int, m)
			for g, members := range exact {
				for _, si := range members {
					assign[si] = g
				}
			}
			if !CheckConst2Servers(streams, assign, make([]cluster.Server, n)) {
				return false
			}
			// Verify zero jitter in the simulator per group.
			for _, members := range exact {
				if len(members) == 0 {
					continue
				}
				specs := make([]cluster.StreamSpec, len(members))
				for k, si := range members {
					specs[k] = cluster.StreamSpec{
						Period: streams[si].Period.Float(),
						Proc:   streams[si].Proc,
					}
				}
				specs = cluster.ZeroJitterOffsetsOn(specs, cluster.Server{})
				res := cluster.SimulateServer(specs, cluster.Server{}, 10)
				if res.MaxJitter > cluster.JitterEps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactGroup8(b *testing.B) {
	fps := []int64{5, 10, 10, 15, 30, 30, 6, 25}
	streams := make([]Stream, 8)
	for i := range streams {
		streams[i] = Stream{Video: i, Period: RatFromFPS(fps[i]), Proc: 0.01 + float64(i)*0.002}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExactGroup(streams, 4)
	}
}
