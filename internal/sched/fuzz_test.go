package sched

import (
	"errors"
	"fmt"
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
// never reference a dead server.
func FuzzScheduleMasked(f *testing.F) {
	f.Add(uint64(1), 4, 3, uint64(0b101))
	f.Add(uint64(42), 8, 5, uint64(0b00000))
	f.Add(uint64(7), 6, 4, uint64(0b1111))
	f.Fuzz(func(t *testing.T, seed uint64, m, n int, maskBits uint64) {
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
				Bits:   1e6 * (1 + float64(next(20))),
			}
		}
		servers := make([]cluster.Server, n)
		for j := range servers {
			servers[j] = cluster.Server{Name: fmt.Sprintf("s%d", j), Uplink: 10e6 * float64(1+next(5))}
		}
		healthy := make([]bool, n)
		for j := range healthy {
			healthy[j] = maskBits&(1<<uint(j)) != 0
		}
		plan, err := ScheduleMasked(streams, servers, healthy)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("non-infeasible error: %v", err)
			}
			return
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
		if !CheckConst2Servers(streams, plan.StreamServer, make([]cluster.Server, n)) {
			t.Fatal("masked plan violates Const2")
		}
		if !CheckConst1Servers(streams, plan.StreamServer, make([]cluster.Server, n)) {
			t.Fatal("masked plan violates Const1")
		}
	})
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
