package sched

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
)

// The oracle below is the big.Rat implementation ProcSum replaced: every
// float64 becomes an exact *big.Rat and every Const1/Const2 decision is a
// normalised rational comparison. It is slow (each Add pays a GCD) but
// obviously right, which is what a differential reference needs.

func ratFromFloat(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }

// ratOf is r as a *big.Rat; the zero Rational, the empty budget, is 0.
func ratOf(r Rational) *big.Rat {
	if r.Num == 0 {
		return new(big.Rat)
	}
	return big.NewRat(r.Num, r.Den)
}

// ratSum is Σ procs as an exact rational; nil when any is non-finite.
func ratSum(procs []float64) *big.Rat {
	sum := new(big.Rat)
	for _, p := range procs {
		r := ratFromFloat(p)
		if r == nil {
			return nil
		}
		sum.Add(sum, r)
	}
	return sum
}

// ratWithin is Σ ≤ budget·speed over rationals, mirroring ProcSum.Within;
// a nil or zero budget is the empty one.
func ratWithin(sum *big.Rat, budget *big.Rat, speed float64) bool {
	if budget == nil || budget.Sign() == 0 {
		return sum.Sign() <= 0
	}
	spd := ratFromFloat(speed)
	if spd == nil || spd.Sign() <= 0 {
		return false
	}
	return sum.Cmp(new(big.Rat).Mul(budget, spd)) <= 0
}

// ratGCD is the greatest common divisor of two non-negative rationals in
// big.Int, independent of RatGCD: gcd(a/b, c/d) = gcd(a·d, c·b)/(b·d), with
// a nil g the empty gcd.
func ratGCD(g *big.Rat, r Rational) *big.Rat {
	x := ratOf(r)
	if g == nil || g.Sign() == 0 {
		return x
	}
	num := new(big.Int).Mul(g.Num(), x.Denom())
	num.GCD(nil, nil, num, new(big.Int).Mul(x.Num(), g.Denom()))
	return new(big.Rat).SetFrac(num, new(big.Int).Mul(g.Denom(), x.Denom()))
}

func ratSplitFactor(s Stream) int64 {
	sp := ratFromFloat(s.Proc)
	if sp == nil || sp.Sign() <= 0 {
		return 1
	}
	sp.Mul(sp, big.NewRat(s.Period.Den, s.Period.Num))
	if sp.Cmp(big.NewRat(1, 1)) <= 0 {
		return 1
	}
	q, rem := new(big.Int), new(big.Int)
	q.QuoRem(sp.Num(), sp.Denom(), rem)
	if rem.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		return math.MaxInt64
	}
	return q.Int64()
}

func ratGroupStreams(streams []Stream, n int) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: %d servers", n)
	}
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return streams[a].Period.Cmp(streams[b].Period)
	})
	prio := make([]int, len(order))
	for i := range order {
		for j := 0; j < i; j++ {
			if streams[order[i]].Period.IsMultipleOf(streams[order[j]].Period) {
				prio[i]++
			}
		}
	}
	idx := make([]int, len(order))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return prio[a] - prio[b] })
	groups := make([][]int, n)
	gmin := make([]Rational, n)
	gproc := make([]*big.Rat, n)
	for _, oi := range idx {
		si := order[oi]
		s := streams[si]
		placed := false
		procR := ratFromFloat(s.Proc)
		if procR == nil {
			return nil, fmt.Errorf("%w: stream video=%d sub=%d has non-finite p=%v",
				ErrInfeasible, s.Video, s.Sub, s.Proc)
		}
		if procR.Cmp(ratOf(s.Period)) > 0 {
			return nil, fmt.Errorf("%w: stream video=%d sub=%d has p=%.4fs > T=%s (split it first)",
				ErrInfeasible, s.Video, s.Sub, s.Proc, s.Period)
		}
		for j := 0; j < n; j++ {
			if len(groups[j]) == 0 {
				groups[j] = append(groups[j], si)
				gmin[j] = s.Period
				gproc[j] = new(big.Rat).Set(procR)
				placed = true
				break
			}
			if s.Period.IsMultipleOf(gmin[j]) &&
				new(big.Rat).Add(gproc[j], procR).Cmp(ratOf(gmin[j])) <= 0 {
				groups[j] = append(groups[j], si)
				gproc[j].Add(gproc[j], procR)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: stream video=%d sub=%d (T=%s, p=%.4fs) fits no group",
				ErrInfeasible, s.Video, s.Sub, s.Period, s.Proc)
		}
	}
	return groups, nil
}

func ratCheckConst1Servers(streams []Stream, streamServer []int, servers []cluster.Server) bool {
	load := make([]*big.Rat, len(servers))
	for i, s := range streams {
		j := streamServer[i]
		if j < 0 || j >= len(servers) {
			return false
		}
		u := ratFromFloat(s.Proc)
		if u == nil {
			return false
		}
		u.Mul(u, big.NewRat(s.Period.Den, s.Period.Num))
		if load[j] == nil {
			load[j] = u
		} else {
			load[j].Add(load[j], u)
		}
	}
	for j, l := range load {
		if l != nil && l.Cmp(ratFromFloat(servers[j].Speed())) > 0 {
			return false
		}
	}
	return true
}

func ratCheckConst2Servers(streams []Stream, streamServer []int, servers []cluster.Server) bool {
	procSum := make([]*big.Rat, len(servers))
	gcds := make([]*big.Rat, len(servers))
	for i, s := range streams {
		j := streamServer[i]
		if j < 0 || j >= len(servers) {
			return false
		}
		p := ratFromFloat(s.Proc)
		if p == nil {
			return false
		}
		if procSum[j] == nil {
			procSum[j] = p
		} else {
			procSum[j].Add(procSum[j], p)
		}
		gcds[j] = ratGCD(gcds[j], s.Period)
	}
	for j := range servers {
		if gcds[j] != nil && !ratWithin(procSum[j], gcds[j], servers[j].Speed()) {
			return false
		}
	}
	return true
}

// ratMask marks the (group, server) cells violating the speed-scaled Const2.
func ratMask(groups [][]int, streams []Stream, servers []cluster.Server) [][]bool {
	out := make([][]bool, len(groups))
	for g, members := range groups {
		out[g] = make([]bool, len(servers))
		procs := make([]float64, 0, len(members))
		var gcd *big.Rat
		for _, si := range members {
			procs = append(procs, streams[si].Proc)
			gcd = ratGCD(gcd, streams[si].Period)
		}
		sum := ratSum(procs)
		if len(members) == 0 || sum == nil {
			continue
		}
		for j, srv := range servers {
			out[g][j] = srv.Speed() != 1 && !ratWithin(sum, gcd, srv.Speed())
		}
	}
	return out
}

// value returns the ProcSum's exact value as a rational, read from either
// tier: the big.Int once wide, else the words decoded as two's complement
// on their own, without promote.
func (s *ProcSum) value() *big.Rat {
	num := new(big.Int)
	if s.wide {
		num.Set(&s.num)
	} else {
		for i := len(s.w) - 1; i >= 0; i-- {
			num.Lsh(num, 64).Add(num, new(big.Int).SetUint64(s.w[i]))
		}
		if int64(s.w[len(s.w)-1]) < 0 {
			num.Sub(num, new(big.Int).Lsh(big.NewInt(1), 64*uint(len(s.w))))
		}
	}
	return new(big.Rat).SetFrac(num, new(big.Int).Lsh(big.NewInt(1), s.shift))
}

// FuzzExactVsRat differentially checks every exact Const1/Const2 decision —
// ProcSum's sums and budget verdicts, GroupStreams' groups and errors, the
// Const1/Const2 checkers, the speed mask and splitFactor — against the
// big.Rat oracle above. The stream pool mixes ordinary processing times
// with 0, subnormals, the largest finite magnitudes, negatives, values
// exactly at a period and one ULP over it, plus whatever floats the fuzzer
// supplies; speeds mix dyadic (0.5, 0.75, 2) and non-dyadic (0.3, 1.1)
// factors.
func FuzzExactVsRat(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), 1.0/3.0, 0.1, 1.0)
	f.Add(uint64(2), uint8(5), uint8(2), 2.5e-3, 1e-9, 0.75)
	f.Add(uint64(3), uint8(12), uint8(4), 0.031, 0.25, 0.3)
	f.Add(uint64(4), uint8(8), uint8(1), 5e-324, math.MaxFloat64, 1.1)
	f.Add(uint64(5), uint8(9), uint8(5), -0.02, math.NaN(), math.Inf(1))
	f.Add(uint64(6), uint8(16), uint8(6), 0.125, math.Nextafter(0.125, 1), 0.5)
	// Narrow → wide promotions: a carry out of the top word (a fixes a
	// 100-bit shift, b fills the 191-bit magnitude, twice); a spread past the
	// words; a negative sum past the most negative word value; split
	// factors whose m·Den·2^e leaves 128 bits or whose quotient leaves
	// int64; and, in seed 10's draws, Const1 servers whose lcm and whose
	// multiplier Denᵢ·(L/Numᵢ) leave int64.
	f.Add(uint64(7), uint8(3), uint8(1), 0x1p-100, 0x1.fffffffffffffp+90, 1.0)
	f.Add(uint64(8), uint8(4), uint8(2), 0x1p-1000, 0x1p+100, 0.3)
	f.Add(uint64(10), uint8(20), uint8(2), -0x1p190, -0x1p190, 1.1)
	f.Add(uint64(11), uint8(6), uint8(3), 0x1p+80, 0x1.8p+62, 2.0)
	f.Add(uint64(12), uint8(2), uint8(1), 0x1p+128, 0x1p+127, 1.0) // m·Den·2^e of 129 and 128 bits over T = 3
	f.Add(uint64(13), uint8(4), uint8(2), -0.5, 0x1p-200, 1.0)     // −1 over 2^1 moved up 199 bits
	// Two streams of period widePrimes[0]/wideDen on one server, whose
	// processing times exceed the period: RatGCD's cross products leave
	// int64 there, and a wrapped gcd once let CheckConst2Servers accept it.
	f.Add(uint64(239), uint8(122), uint8(25), 268.33333333333337, 108.7375, -120.85714285714286)
	f.Fuzz(func(t *testing.T, seed uint64, m, n uint8, a, b, speed float64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		pool := []float64{0, 5e-324, 3 * 5e-324, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
			-0.01, 1.0 / 3.0, 0.1, 0.125, math.Nextafter(0.125, 1), a, b, -a}
		fps := []int64{1, 2, 4, 5, 8, 10, 16, 25, 30}
		streams := make([]Stream, 1+int(m)%24)
		for i := range streams {
			per := Rat(1+int64(rng.Intn(4)), fps[rng.Intn(len(fps))])
			switch rng.Intn(8) {
			case 0:
				// Large prime numerators: a few on one server push the lcm
				// of Const1 past int64.
				per = Rat(widePrimes[rng.Intn(len(widePrimes))], fps[rng.Intn(len(fps))])
			case 1:
				// Two of these on one server keep the lcm inside int64 but
				// push the multiplier Denᵢ·(L/Numᵢ) past it.
				per = Rat(widePrimes[rng.Intn(len(widePrimes))], wideDen)
			}
			var p float64
			switch rng.Intn(5) {
			case 0:
				p = pool[rng.Intn(len(pool))]
			case 1:
				p = per.Float() // exactly at the period when it is dyadic
			case 2:
				p = math.Nextafter(per.Float(), 2)
			default:
				p = per.Float() * rng.Float64() / 3
			}
			streams[i] = Stream{Video: i, Period: per, Proc: p, Bits: 1e6}
		}
		speeds := []float64{0, 1, 0.5, 0.75, 2, 0.3, 1.1, speed}
		servers := make([]cluster.Server, 1+int(n)%8)
		for j := range servers {
			servers[j] = cluster.Server{Uplink: 1e7, SpeedFactor: speeds[rng.Intn(len(speeds))]}
		}

		// ProcSum: the exact value and every budget verdict.
		procs := make([]float64, len(streams))
		for i, s := range streams {
			procs[i] = s.Proc
		}
		var sum ProcSum
		finite := true
		for _, p := range procs {
			ok := sum.Add(p)
			if ok != !(math.IsNaN(p) || math.IsInf(p, 0)) {
				t.Fatalf("Add(%v) = %v", p, ok)
			}
			finite = finite && ok
		}
		ref := ratSum(procs)
		if (ref != nil) != finite {
			t.Fatalf("finiteness: ProcSum %v, oracle %v", finite, ref != nil)
		}
		if finite {
			if got := sum.value(); got.Cmp(ref) != 0 {
				t.Fatalf("Σ = %v, oracle %v", got.FloatString(20), ref.FloatString(20))
			}
			budgets := []Rational{{}, Rat(1, 1), streams[0].Period}
			for _, bud := range budgets {
				for _, srv := range servers {
					for _, spd := range []float64{srv.Speed(), speed} {
						if got, want := sum.Within(bud, spd), ratWithin(ref, ratOf(bud), spd); got != want {
							t.Fatalf("Within(%v, %v) = %v, oracle %v (Σ = %v)", bud, spd, got, want, ref.FloatString(20))
						}
					}
				}
			}
			// At the budget exactly, and one ULP (or one subnormal) over.
			if fs, _ := ref.Float64(); fs > 0 && !math.IsInf(fs, 1) && ratFromFloat(fs).Cmp(ref) == 0 {
				if !sum.Within(Rat(1, 1), fs) {
					t.Fatalf("Σ = %v exactly at budget rejected", fs)
				}
				if sum.Within(Rat(1, 1), math.Nextafter(fs, 0)) {
					t.Fatalf("Σ = %v one ULP over budget accepted", fs)
				}
				sum.Add(5e-324)
				if sum.Within(Rat(1, 1), fs) {
					t.Fatalf("Σ = %v plus one subnormal accepted", fs)
				}
			}
		}

		// The fuzzer's own operands in a fixed order, where it steers the
		// exponent spread and the carries: a, b, b again, then a's undo.
		var ops ProcSum
		seq := []float64{a, b, b, -a}
		for k, p := range seq {
			if !ops.Add(p) {
				break
			}
			ref := ratSum(seq[:k+1])
			if got := ops.value(); got.Cmp(ref) != 0 {
				t.Fatalf("Σ %v = %v, oracle %v", seq[:k+1], got.FloatString(20), ref.FloatString(20))
			}
			for _, bud := range []Rational{Rat(1, 1), Rat(1, 30)} {
				if got, want := ops.Within(bud, speed), ratWithin(ref, ratOf(bud), speed); got != want {
					t.Fatalf("Σ %v: Within(%v, %v) = %v, oracle %v", seq[:k+1], bud, speed, got, want)
				}
			}
		}

		// splitFactor, on the pool's streams and on a and b over every
		// period shape.
		split := slices.Clone(streams)
		for _, p := range []float64{a, b} {
			for _, per := range []Rational{Rat(1, 30), Rat(3, 1), Rat(widePrimes[0], wideDen), Rat(1, math.MaxInt64)} {
				split = append(split, Stream{Period: per, Proc: p})
			}
		}
		for _, s := range split {
			if got, want := splitFactor(s), ratSplitFactor(s); got != want {
				t.Fatalf("splitFactor(p=%v, T=%v) = %d, oracle %d", s.Proc, s.Period, got, want)
			}
		}

		// GroupStreams: same groups, same error.
		groups, err := GroupStreams(streams, len(servers))
		wantGroups, wantErr := ratGroupStreams(streams, len(servers))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(groups, wantGroups) {
			t.Fatalf("GroupStreams = %v, %v; oracle %v, %v", groups, err, wantGroups, wantErr)
		}
		if err == nil {
			cols := make([]int, len(servers))
			for j := range cols {
				cols[j] = j
			}
			var m Matcher
			cost := m.Build(len(groups), func(int) float64 { return 0 }, cols, servers)
			m.maskSpeedInfeasible(groups, streams, servers, cols)
			want := ratMask(groups, streams, servers)
			for g := range cost {
				for j := range cost[g] {
					if math.IsInf(cost[g][j], 1) != want[g][j] {
						t.Fatalf("mask[%d][%d] = %v, oracle %v", g, j, cost[g][j], want[g][j])
					}
				}
			}
		} else if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("GroupStreams error %v is not ErrInfeasible", err)
		}

		// Const1/Const2 on a random assignment (one stream possibly out of
		// range) and on Algorithm 1's own plan.
		assigns := [][]int{make([]int, len(streams))}
		for i := range assigns[0] {
			assigns[0][i] = rng.Intn(len(servers))
		}
		if rng.Intn(8) == 0 {
			assigns[0][rng.Intn(len(streams))] = len(servers)
		}
		if err == nil {
			if plan, mapErr := MapGroups(groups, streams, servers); mapErr == nil {
				assigns = append(assigns, plan.StreamServer)
			}
		}
		for _, as := range assigns {
			if got, want := CheckConst1Servers(streams, as, servers), ratCheckConst1Servers(streams, as, servers); got != want {
				t.Fatalf("CheckConst1Servers = %v, oracle %v (assign %v)", got, want, as)
			}
			if got, want := CheckConst2Servers(streams, as, servers), ratCheckConst2Servers(streams, as, servers); got != want {
				t.Fatalf("CheckConst2Servers = %v, oracle %v (assign %v)", got, want, as)
			}
		}
	})
}

// TestRationalPastInt64 pins the Rational operations whose cross products
// leave int64 on periods of large terms: RatGCD(p, p) is p, not a wrapped
// value; IsMultipleOf and Cmp decide exactly; Const2 rejects two streams
// of period p whose processing times sum past p; and Mul and ratLCM panic
// rather than wrap when their result leaves int64.
func TestRationalPastInt64(t *testing.T) {
	p, q := Rat(widePrimes[0], wideDen), Rat(widePrimes[1], wideDen)
	if g := RatGCD(p, p); g != p {
		t.Fatalf("RatGCD(%v, %v) = %v", p, p, g)
	}
	if g := RatGCD(p, q); g != Rat(1, wideDen) {
		t.Fatalf("RatGCD(%v, %v) = %v, want 1/%d", p, q, g, int64(wideDen))
	}
	if !p.Mul(3).IsMultipleOf(p) || p.IsMultipleOf(q) || !p.IsMultipleOf(Rat(1, wideDen)) {
		t.Fatal("IsMultipleOf past int64")
	}
	if p.Cmp(q) != 1 || q.Cmp(p) != -1 || p.Cmp(p) != 0 || p.Cmp(Rat(1, 30)) != -1 {
		t.Fatal("Cmp past int64")
	}
	half := p.Float() / 2
	streams := []Stream{{Period: p, Proc: math.Nextafter(half, 1)}, {Period: p, Proc: half}}
	servers := []cluster.Server{{}}
	if got, want := CheckConst2Servers(streams, []int{0, 0}, servers), ratCheckConst2Servers(streams, []int{0, 0}, servers); got || want {
		t.Fatalf("CheckConst2Servers = %v, oracle %v; want both false", got, want)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Mul", func() { p.Mul(1 << 40) })
	mustPanic("ratLCM", func() { ratLCM(Rat(1, wideDen), Rat(1, wideDen+2)) })
}

// widePrimes are period numerators whose lcm over three streams exceeds
// int64, the case where Const1's per-stream multiplier Denᵢ·(L/Numᵢ) would
// wrap in fixed-width arithmetic.
var widePrimes = []int64{2147483647, 2147483629, 2147483587}

// wideDen is a period denominator coprime to widePrimes: over two of them
// the lcm ~2^62 fits int64, and the multiplier wideDen·(L/Numᵢ) ~2^71 does
// not.
const wideDen = 1<<40 + 1

// TestCheckConst1WideLCM pins Const1 against the oracle on servers that
// leave the words and are decided in big.Int: an lcm of ~2^93; an lcm just
// past 2^63 (past int64, inside uint64); and an lcm ~2^62 that fits int64
// while the multipliers wideDen·(L/Numᵢ) ~2^71 do not. Each carries a load
// just under, at and just over the budget.
func TestCheckConst1WideLCM(t *testing.T) {
	for _, c := range []struct {
		name string
		nums []int64
		den  int64
	}{
		{"lcm ~2^93", widePrimes, 1},
		{"lcm past 2^63", []int64{4294967291, 2147483659}, 1},
		{"multiplier past int64", widePrimes[:2], wideDen},
	} {
		n := len(c.nums)
		streams := make([]Stream, n)
		on := make([]int, n)
		for i, num := range c.nums {
			per := Rat(num, c.den)
			streams[i] = Stream{Period: per, Proc: per.Float() / float64(n)}
			on[i] = i
		}
		servers := []cluster.Server{{}}
		assign := make([]int, len(streams))
		var sum ProcSum
		if _, narrow := loadWithinWords(&sum, streams, on, 1); narrow {
			t.Fatalf("%s: decided in the words", c.name)
		}
		for _, scale := range []float64{math.Nextafter(1, 0), 1, math.Nextafter(1, 2), float64(n)} {
			scaled := slices.Clone(streams)
			for i := range scaled {
				scaled[i].Proc *= scale
			}
			if got, want := CheckConst1Servers(scaled, assign, servers), ratCheckConst1Servers(scaled, assign, servers); got != want {
				t.Fatalf("%s, scale %v: CheckConst1Servers = %v, oracle %v", c.name, scale, got, want)
			}
		}
		if !CheckConst1Servers(streams[:1], assign[:1], servers) {
			t.Fatalf("%s: a fraction of one server rejected", c.name)
		}
	}
}

// TestProcSumTiers walks ProcSums through both tiers and checks every
// step against the big.Rat oracle: ordinary adds stay in the words; a
// spread past them, a carry out of the top word or a negative sum past the
// most negative word value promotes; an undo continues wide; Reset returns
// to the words; Set copies across tiers in both directions; and Within is
// exact at the budget and one ULP over it in either tier.
func TestProcSumTiers(t *testing.T) {
	check := func(step string, s *ProcSum, terms []float64, wide bool) {
		t.Helper()
		if s.wide != wide {
			t.Fatalf("%s: wide = %v, want %v", step, s.wide, wide)
		}
		ref := ratSum(terms)
		if got := s.value(); got.Cmp(ref) != 0 {
			t.Fatalf("%s: Σ = %v, oracle %v", step, got.FloatString(30), ref.FloatString(30))
		}
		for _, bud := range []Rational{{}, Rat(1, 1), Rat(1, 30), Rat(7, 3)} {
			for _, spd := range []float64{1, 0.3, 1.1, 2, 0x1p-1074, math.MaxFloat64} {
				if got, want := s.Within(bud, spd), ratWithin(ref, ratOf(bud), spd); got != want {
					t.Fatalf("%s: Within(%v, %v) = %v, oracle %v", step, bud, spd, got, want)
				}
			}
		}
		if fs, exact := ref.Float64(); exact && fs > 0 && !math.IsInf(fs, 1) {
			if !s.Within(Rat(1, 1), fs) {
				t.Fatalf("%s: Σ exactly at the budget rejected", step)
			}
			if s.Within(Rat(1, 1), math.Nextafter(fs, 0)) {
				t.Fatalf("%s: Σ one ULP over the budget accepted", step)
			}
		}
		if s.wide != wide {
			t.Fatalf("%s: Within changed the tier", step)
		}
	}
	var s ProcSum
	var terms []float64
	add := func(step string, p float64, wide bool) {
		t.Helper()
		if !s.Add(p) {
			t.Fatalf("%s: Add(%v) = false", step, p)
		}
		terms = append(terms, p)
		check(step, &s, terms, wide)
	}
	check("empty", &s, nil, false)
	add("0.1", 0.1, false)
	add("1/3", 1.0/3.0, false)
	add("−0.01", -0.01, false)
	add("undo 0.1", -0.1, false)
	add("subnormal beside 1/3", 5e-324, true) // a 1,074-bit spread promotes
	add("undo the subnormal", -5e-324, true)
	add("MaxFloat64", math.MaxFloat64, true)
	add("undo MaxFloat64", -math.MaxFloat64, true)
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s.Add(p) {
			t.Fatalf("Add(%v) = true", p)
		}
		check(fmt.Sprintf("Add(%v) refused", p), &s, terms, true)
	}
	var wideSum, narrowSum ProcSum // Set, not assignment: a big.Int copy shares its words
	wideSum.Set(&s)

	s.Reset()
	terms = nil
	check("Reset", &s, nil, false)
	add("lone subnormal", 5e-324, false)
	add("undo it", -5e-324, false)
	add("1", 1, false)
	add("2^-200 beside 1", 0x1p-200, true) // the sum would move up past the words
	s.Reset()
	terms = nil
	// 2^-100 fixes a 100-bit shift; (2^53−1)·2^38 then fills all 191 bits
	// of the narrow magnitude, and a second one carries out of it.
	big := 0x1.fffffffffffffp+90
	add("2^-100", 0x1p-100, false)
	add("191-bit term", big, false)
	narrowSum.Set(&s)
	narrowTerms := slices.Clone(terms)
	add("carry out of the top word", big, true)
	add("undo the carry", -big, true)

	s.Reset()
	terms = nil
	add("−2^190", -0x1p190, false)
	add("−2^191, the most negative word value", -0x1p190, false)
	add("past it", -0x1p190, true)

	// −1 over 2^shift has no magnitude bits besides its sign, yet moving it
	// up by 191 bits makes the most negative word value and by 199 leaves
	// the words.
	s.Reset()
	terms = nil
	add("−0.5", -0.5, false)
	add("2^-192 moves −1 up 191 bits", 0x1p-192, false)
	add("2^-192 again", 0x1p-192, false)
	s.Reset()
	terms = nil
	add("−0.5 again", -0.5, false)
	add("2^-200 moves −1 up 199 bits", 0x1p-200, true)
	add("1 after the promotion", 1, true)

	// A positive term of 192 bits does not fit beside a negative sum, where
	// the add itself could not tell it from a negative one.
	s.Reset()
	terms = nil
	add("−2^-100", -0x1p-100, false)
	add("192-bit term", 0x1.fffffffffffffp+91, true)

	// Set, both directions; the source is unchanged and keeps its tier.
	var d ProcSum
	d.Set(&wideSum)
	check("Set wide into empty", &d, []float64{0.1, 1.0 / 3.0, -0.01, -0.1}, true)
	d.Set(&narrowSum)
	check("Set narrow over wide", &d, narrowTerms, false)
	d.Set(&s)
	check("Set wide over narrow", &d, terms, true)
	check("Set's source", &s, terms, true)
	d.Reset()
	check("Reset after Set", &d, nil, false)
}

// fleetInstance is a feasible 512-stream, 64-server instance in the shape of
// the fleet placement workload: commensurate frame rates, small processing
// times, half the servers at a non-unit speed.
func fleetInstance() ([]Stream, []cluster.Server) {
	rng := rand.New(rand.NewSource(7))
	fps := []int64{5, 10, 15, 30}
	streams := make([]Stream, 512)
	for i := range streams {
		streams[i] = Stream{Video: i, Period: RatFromFPS(fps[rng.Intn(len(fps))]), Proc: rng.Float64() / 300, Bits: 1e6}
	}
	servers := make([]cluster.Server, 64)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: 1e8, SpeedFactor: float64(1 + j%2)}
	}
	return streams, servers
}

// TestExactChecksAllocationBound pins the allocation profile of the exact
// path at fleet scale, each at its measured count: grouping allocates its
// sort orders, priorities, group slices and sums (98), both checkers only
// byServer's two buckets, and the split only its output. The big.Rat
// versions allocated ~99k, ~13k and ~9.5k times on the same instance, and
// the big.Int ProcSum 136, 10 and 10, with 2,570 for the split.
func TestExactChecksAllocationBound(t *testing.T) {
	streams, servers := fleetInstance()
	plan, err := Schedule(streams, servers)
	if err != nil {
		t.Fatal(err)
	}
	if !CheckConst1Servers(streams, plan.StreamServer, servers) || !CheckConst2Servers(streams, plan.StreamServer, servers) {
		t.Fatal("Algorithm 1's plan fails the exact checks")
	}
	for _, c := range []struct {
		name  string
		limit float64
		fn    func()
	}{
		{"GroupStreams", 98, func() { _, _ = GroupStreams(streams, len(servers)) }},
		{"CheckConst1Servers", 2, func() { CheckConst1Servers(streams, plan.StreamServer, servers) }},
		{"CheckConst2Servers", 2, func() { CheckConst2Servers(streams, plan.StreamServer, servers) }},
		{"SplitHighRate", 1, func() { SplitHighRate(streams) }},
	} {
		if got := testing.AllocsPerRun(10, c.fn); got > c.limit {
			t.Errorf("%s: %.0f allocations per call, want ≤ %.0f", c.name, got, c.limit)
		} else {
			t.Logf("%s: %.0f allocations per call", c.name, got)
		}
	}
}

// BenchmarkGroupStreamsFleet times Algorithm 1's grouping (lines 1–19) on
// the fleet instance: the exact admission sums and the line-2 priorities.
func BenchmarkGroupStreamsFleet(b *testing.B) {
	streams, servers := fleetInstance()
	b.ReportAllocs()
	for range b.N {
		if _, err := GroupStreams(streams, len(servers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckConstFleet times one exact checker pass, Const1 then Const2,
// over Algorithm 1's plan of the fleet instance.
func BenchmarkCheckConstFleet(b *testing.B) {
	streams, servers := fleetInstance()
	plan, err := Schedule(streams, servers)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		if !CheckConst1Servers(streams, plan.StreamServer, servers) || !CheckConst2Servers(streams, plan.StreamServer, servers) {
			b.Fatal("Algorithm 1's plan fails the exact checks")
		}
	}
}

// BenchmarkSplitHighRateFleet times the Section 3 split over the fleet
// instance's 512 streams.
func BenchmarkSplitHighRateFleet(b *testing.B) {
	streams, _ := fleetInstance()
	b.ReportAllocs()
	for range b.N {
		SplitHighRate(streams)
	}
}
