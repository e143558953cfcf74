package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// FuzzRationalArithmetic checks the exact-gcd invariants on arbitrary
// fps-derived rationals.
func FuzzRationalArithmetic(f *testing.F) {
	f.Add(int64(5), int64(30), int64(2))
	f.Add(int64(1), int64(1), int64(1))
	f.Add(int64(25), int64(6), int64(7))
	f.Fuzz(func(t *testing.T, a, b, k int64) {
		a = 1 + abs64(a)%120
		b = 1 + abs64(b)%120
		k = 1 + abs64(k)%10
		ra, rb := RatFromFPS(a), RatFromFPS(b)
		g := RatGCD(ra, rb)
		if !ra.IsMultipleOf(g) || !rb.IsMultipleOf(g) {
			t.Fatalf("gcd(%v, %v) = %v does not divide both", ra, rb, g)
		}
		if g.Cmp(ra) > 0 || g.Cmp(rb) > 0 {
			t.Fatalf("gcd larger than an operand: %v", g)
		}
		// Scaling: a multiple of ra is still a multiple of g.
		if !ra.Mul(k).IsMultipleOf(g) {
			t.Fatalf("(%v)·%d not a multiple of gcd %v", ra, k, g)
		}
		// Float consistency.
		if g.Float() <= 0 {
			t.Fatalf("gcd float %v", g.Float())
		}
	})
}

// FuzzGroupStreams checks that any grouping Algorithm 1 accepts satisfies
// both constraints.
func FuzzGroupStreams(f *testing.F) {
	f.Add(uint64(1), 4, 2)
	f.Add(uint64(42), 8, 5)
	f.Fuzz(func(t *testing.T, seed uint64, m, n int) {
		m = 1 + abs(m)%8
		n = 1 + abs(n)%5
		fps := []int64{5, 6, 10, 15, 25, 30}
		rng := seed
		next := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(k))
		}
		streams := make([]Stream, m)
		for i := range streams {
			p := RatFromFPS(fps[next(len(fps))])
			streams[i] = Stream{
				Video:  i,
				Period: p,
				Proc:   p.Float() * (0.05 + 0.9*float64(next(100))/100),
			}
		}
		groups, err := GroupStreams(streams, n)
		if err != nil {
			return // infeasible is fine
		}
		assign := make([]int, m)
		for i := range assign {
			assign[i] = -1
		}
		for g, members := range groups {
			for _, si := range members {
				if assign[si] != -1 {
					t.Fatalf("stream %d grouped twice", si)
				}
				assign[si] = g
			}
		}
		for i, a := range assign {
			if a < 0 {
				t.Fatalf("stream %d not grouped", i)
			}
		}
		if !CheckConst2Servers(streams, assign, make([]cluster.Server, n)) {
			t.Fatal("accepted grouping violates Const2")
		}
		if !CheckConst1Servers(streams, assign, make([]cluster.Server, n)) {
			t.Fatal("accepted grouping violates Const1 (Theorem 2 broken)")
		}
	})
}

// FuzzScheduleMasked checks the shrinking-capacity path: with a random
// subset of servers removed, Algorithm 1 must either produce a feasible
// plan on the survivors or return a clean ErrInfeasible — never panic and
// never reference a dead server. The healthy physical indices are the
// match's columns, and the plan must equal scheduleMaskedCompact's
// (compact the survivors, solve, remap) bit for bit, error text included.
func FuzzScheduleMasked(f *testing.F) {
	f.Add(uint64(1), 4, 3, uint64(0b101))
	f.Add(uint64(42), 8, 5, uint64(0b00000))
	f.Add(uint64(7), 6, 4, uint64(0b1111))
	f.Fuzz(func(t *testing.T, seed uint64, m, n int, maskBits uint64) {
		m = 1 + abs(m)%8
		n = 1 + abs(n)%5
		next := lcgNext(seed)
		streams := fuzzStreams(m, next)
		servers := fuzzServers(n, next)
		healthy := make([]bool, n)
		for j := range healthy {
			healthy[j] = maskBits&(1<<uint(j)) != 0
		}
		plan, err := ScheduleMasked(streams, servers, healthy)
		want, wantErr := scheduleMaskedCompact(streams, servers, healthy)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ScheduleMasked err %v, compact-and-remap err %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("non-infeasible error: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(plan, want) {
			t.Fatalf("column-list plan diverged from compact-and-remap:\n%+v\n%+v", plan, want)
		}
		for i, j := range plan.StreamServer {
			if j < 0 || j >= n {
				t.Fatalf("stream %d assigned to out-of-range server %d", i, j)
			}
			if !healthy[j] {
				t.Fatalf("stream %d assigned to dead server %d", i, j)
			}
		}
		for g, j := range plan.GroupServer {
			if j < 0 || j >= n || !healthy[j] {
				t.Fatalf("group %d mapped to dead/out-of-range server %d", g, j)
			}
		}
		if !CheckConst2Servers(streams, plan.StreamServer, servers) {
			t.Fatal("masked plan violates Const2")
		}
		if !CheckConst1Servers(streams, plan.StreamServer, servers) {
			t.Fatal("masked plan violates Const1")
		}
	})
}

// scheduleMaskedCompact is the compact-and-remap form of ScheduleMasked:
// copy the healthy servers into a compact slice, run Algorithm 1 on it, and
// map the compact server indices back to physical ones.
func scheduleMaskedCompact(streams []Stream, servers []cluster.Server, healthy []bool) (Plan, error) {
	var idx []int
	for j, ok := range healthy {
		if ok {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return Plan{}, fmt.Errorf("%w: no healthy servers", ErrInfeasible)
	}
	sub := make([]cluster.Server, len(idx))
	for k, j := range idx {
		sub[k] = servers[j]
	}
	groups, err := GroupStreams(streams, len(sub))
	if err != nil {
		return Plan{}, err
	}
	plan, err := MapGroups(groups, streams, sub)
	if err != nil {
		return Plan{}, err
	}
	for g := range plan.GroupServer {
		plan.GroupServer[g] = idx[plan.GroupServer[g]]
	}
	for i, j := range plan.StreamServer {
		if j >= 0 {
			plan.StreamServer[i] = idx[j]
		}
	}
	return plan, nil
}

// lcgNext returns the deterministic draw the scheduling fuzzers share:
// next(k) is uniform-ish in [0, k).
func lcgNext(seed uint64) func(k int) int {
	rng := seed
	return func(k int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(k))
	}
}

// fuzzStreams draws m streams at commensurate and incommensurate frame
// rates, each using 5–95 % of its own period.
func fuzzStreams(m int, next func(int) int) []Stream {
	fps := []int64{5, 6, 10, 15, 25, 30}
	streams := make([]Stream, m)
	for i := range streams {
		p := RatFromFPS(fps[next(len(fps))])
		streams[i] = Stream{
			Video:  i,
			Period: p,
			Proc:   p.Float() * (0.05 + 0.9*float64(next(100))/100),
			Bits:   1e6 * (1 + float64(next(20))),
		}
	}
	return streams
}

// fuzzServers draws n servers with 10–50 Mbps uplinks, one in eight of them
// a zero uplink, and a SpeedFactor from {0, 0.5, 1, 2} (0 means speed 1).
func fuzzServers(n int, next func(int) int) []cluster.Server {
	speeds := []float64{0, 0.5, 1, 2}
	servers := make([]cluster.Server, n)
	for j := range servers {
		up := 10e6 * float64(1+next(5))
		if next(8) == 0 {
			up = 0
		}
		servers[j] = cluster.Server{Name: fmt.Sprintf("s%d", j), Uplink: up, SpeedFactor: speeds[next(len(speeds))]}
	}
	return servers
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
