package sched

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"repro/internal/cluster"
)

// Stream is one periodic stream as Algorithm 1 sees it: an exact period,
// the per-frame processing time on a (homogeneous) server, and the encoded
// frame size used for the communication-latency objective.
type Stream struct {
	Video  int      // index of the originating video source
	Sub    int      // sub-stream index after high-rate splitting (0 = first)
	Period Rational // inter-arrival period T = 1/s (seconds)
	Proc   float64  // per-frame processing time p (seconds)
	Bits   float64  // encoded frame size (bits)
}

// FPS returns the stream's frame rate 1/T as a float.
func (s Stream) FPS() float64 { return 1 / s.Period.Float() }

// SplitHighRate implements the Section 3 preprocessing: every stream whose
// worst-case per-frame processing time exceeds its period (s·p > 1) is
// split by periodic sampling into c = ⌈s·p⌉ sub-streams of period c·T, so
// that each sub-stream alone never self-queues on a server.
func SplitHighRate(streams []Stream) []Stream {
	var out []Stream
	for _, s := range streams {
		c := splitFactor(s)
		if c <= 1 {
			out = append(out, s)
			continue
		}
		for k := int64(0); k < c; k++ {
			sub := s
			sub.Sub = int(k)
			sub.Period = s.Period.Mul(c)
			out = append(out, sub)
		}
	}
	return out
}

// splitFactor returns c = ⌈s·p⌉ = ⌈Proc/Period⌉ computed exactly in integer
// arithmetic (1 when the stream needs no split). The old float path,
// ⌈Proc/Period.Float() − 1e-12⌉, under-split when s·p sat marginally above
// an integer: sp = 3+1e-13 yielded c = 3 sub-streams of period 3·T with
// p/(3T) > 1 — each sub-stream alone still self-queues, and Const2 is
// unsatisfiable for it on any server. The exact ceiling guarantees
// p ≤ c·T, and therefore s'·p ≤ 1, exactly. Non-finite or non-positive
// processing times never split.
func splitFactor(s Stream) int64 {
	if !(s.Proc > 0) || math.IsInf(s.Proc, 1) {
		return 1
	}
	// Proc/Period = m·2^e·Den/Num = a/b over integers.
	m, e := dyadic(s.Proc)
	var a, b, q, r big.Int
	a.Mul(q.SetInt64(m), r.SetInt64(s.Period.Den))
	b.SetInt64(s.Period.Num)
	if e >= 0 {
		a.Lsh(&a, uint(e))
	} else {
		b.Lsh(&b, uint(-e))
	}
	if a.Cmp(&b) <= 0 {
		return 1
	}
	if q.QuoRem(&a, &b, &r); r.Sign() > 0 {
		q.Add(&q, r.SetInt64(1))
	}
	if !q.IsInt64() {
		// Degenerate inputs (absurdly large Proc): saturate rather than
		// silently truncate big.Int bits.
		return math.MaxInt64
	}
	return q.Int64()
}

// ErrInfeasible is returned when Algorithm 1 cannot group the streams into
// the available servers under Const2.
var ErrInfeasible = errors.New("sched: no feasible zero-jitter grouping")

// Plan is the output of Algorithm 1.
type Plan struct {
	Groups       [][]int // stream indices per group (len = number of servers)
	GroupServer  []int   // group index -> server index
	StreamServer []int   // stream index -> server index (the paper's q vector)
	CommLatency  float64 // total transmission latency Σ bits/B over streams
}

// GroupStreams runs lines 1–19 of Algorithm 1: it partitions the streams
// into at most n groups such that within each group (a) every period is an
// integer multiple of the group's minimum period and (b) the processing
// times sum to at most that minimum period — the sufficient conditions of
// Theorem 3 for the zero-jitter constraint Const2.
func GroupStreams(streams []Stream, n int) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: %d servers", n)
	}
	// Line 1: sort by period ascending (stable: keep input order on ties).
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return streams[a].Period.Cmp(streams[b].Period)
	})
	// Line 2: priority I_i = #{j < i : T_i mod T_j = 0} over the
	// period-sorted sequence.
	prio := make([]int, len(order))
	for i := range order {
		ti := streams[order[i]].Period
		for j := 0; j < i; j++ {
			if ti.IsMultipleOf(streams[order[j]].Period) {
				prio[i]++
			}
		}
	}
	// Line 3: re-sort ascending by priority (stable, so the period order
	// breaks ties).
	idx := make([]int, len(order))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return prio[a] - prio[b] })

	// Lines 4–19: greedy grouping. Σ proc per group is an exact ProcSum
	// compared against the group's minimum period without tolerance: the
	// old `Σp ≤ T.Float()+1e-12` admission accepted groups that marginally
	// violate Theorem 3's Σp ≤ T condition, voiding the zero-jitter
	// guarantee by up to one epsilon of queueing per hyperperiod.
	groups := make([][]int, n)
	gmin := make([]Rational, n) // min period per group
	gproc := make([]ProcSum, n) // Σ proc per group, exact
	var trial ProcSum
	for _, oi := range idx {
		si := order[oi]
		s := streams[si]
		trial.Reset()
		if !trial.Add(s.Proc) {
			return nil, fmt.Errorf("%w: stream video=%d sub=%d has non-finite p=%v",
				ErrInfeasible, s.Video, s.Sub, s.Proc)
		}
		// A stream whose processing time exceeds its own period violates
		// Const2 even alone; the caller should have split it (Section 3).
		if !trial.Within(s.Period, 1) {
			return nil, fmt.Errorf("%w: stream video=%d sub=%d has p=%.4fs > T=%s (split it first)",
				ErrInfeasible, s.Video, s.Sub, s.Proc, s.Period)
		}
		placed := false
		for j := 0; j < n; j++ {
			if len(groups[j]) == 0 {
				groups[j] = append(groups[j], si)
				gmin[j] = s.Period
				gproc[j].Add(s.Proc)
				placed = true
				break
			}
			if !s.Period.IsMultipleOf(gmin[j]) {
				continue
			}
			trial.Set(&gproc[j])
			trial.Add(s.Proc)
			if trial.Within(gmin[j], 1) {
				groups[j] = append(groups[j], si)
				gproc[j].Set(&trial)
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

// MapGroups runs line 20 of Algorithm 1: assign groups to servers with the
// Hungarian algorithm, minimizing the total transmission latency
// Σ_{i∈G_j} bits_i/B_{q_j}. On heterogeneous clusters, (group, server)
// pairs violating the speed-scaled Const2 are masked out of the matching;
// when no complete matching avoids the masked cells and the zero-uplink
// servers, the result is a wrapped ErrInfeasible.
func MapGroups(groups [][]int, streams []Stream, servers []cluster.Server) (Plan, error) {
	m := matchPool.Get().(*Matcher)
	defer matchPool.Put(m)
	m.cols = healthyCols(m.cols[:0], len(servers), nil)
	return m.mapGroups(groups, streams, servers, m.cols)
}

// mapGroups is MapGroups over the physical server columns cols: the plan's
// GroupServer and StreamServer name servers[cols[c]].
func (m *Matcher) mapGroups(groups [][]int, streams []Stream, servers []cluster.Server, cols []int) (Plan, error) {
	m.Build(len(groups), func(g int) float64 { return groupBits(groups[g], streams) }, cols, servers)
	if hetero(servers) {
		m.maskSpeedInfeasible(groups, streams, servers, cols)
	}
	assign, total, ok := m.Solve()
	if !ok {
		return Plan{}, fmt.Errorf("%w: some group fits no server (a zero uplink for its bits, or Σp over its gcd·speed budget)", ErrInfeasible)
	}
	return place(groups, assign, cols, len(streams), total), nil
}

// place assembles the plan of a solved match: row g (group g, or a dummy
// row past the groups) runs on server cols[assign[g]], and streams in no
// group keep StreamServer −1.
func place(groups [][]int, assign, cols []int, nStreams int, total float64) Plan {
	plan := Plan{
		Groups:       groups,
		GroupServer:  make([]int, len(assign)),
		StreamServer: make([]int, nStreams),
		CommLatency:  total,
	}
	for g, c := range assign {
		plan.GroupServer[g] = cols[c]
	}
	for i := range plan.StreamServer {
		plan.StreamServer[i] = -1
	}
	for g, members := range groups {
		for _, si := range members {
			plan.StreamServer[si] = plan.GroupServer[g]
		}
	}
	return plan
}

// Schedule runs the complete Algorithm 1 on pre-split streams.
func Schedule(streams []Stream, servers []cluster.Server) (Plan, error) {
	return ScheduleMasked(streams, servers, nil)
}

// ScheduleMasked runs Algorithm 1 on the healthy subset of the servers —
// the shrunken-capacity case when faults take servers down. The healthy
// physical indices are the match's columns, so the plan's
// GroupServer/StreamServer indices refer to the FULL servers slice and
// callers keep one physical index space across fault states. A nil mask
// means all servers are healthy. With zero healthy servers, or when no
// zero-jitter grouping fits the survivors, it returns a wrapped
// ErrInfeasible.
func ScheduleMasked(streams []Stream, servers []cluster.Server, healthy []bool) (Plan, error) {
	if healthy != nil && len(healthy) != len(servers) {
		return Plan{}, fmt.Errorf("sched: mask length %d for %d servers", len(healthy), len(servers))
	}
	m := matchPool.Get().(*Matcher)
	defer matchPool.Put(m)
	m.cols = healthyCols(m.cols[:0], len(servers), healthy)
	if len(m.cols) == 0 && healthy != nil {
		return Plan{}, fmt.Errorf("%w: no healthy servers", ErrInfeasible)
	}
	groups, err := GroupStreams(streams, len(m.cols))
	if err != nil {
		return Plan{}, err
	}
	return m.mapGroups(groups, streams, servers, m.cols)
}

// Utilizations returns each server's compute utilization Σ pᵢ·sᵢ under the
// plan — the left-hand side of Const1, useful for capacity reports.
func (p Plan) Utilizations(streams []Stream, n int) []float64 {
	load := make([]float64, n)
	for i, s := range streams {
		if j := p.StreamServer[i]; j >= 0 && j < n {
			load[j] += s.Proc / s.Period.Float()
		}
	}
	return load
}

// CheckConst1Servers verifies Eq. (6) exactly: on every server,
// Σ pᵢ·sᵢ ≤ speed_j (1 for a zero SpeedFactor). With L the lcm of the
// period numerators on a server, every rate sᵢ = Denᵢ/Numᵢ is the integer
// Denᵢ·(L/Numᵢ) over L, so the load is one exact ProcSum of pᵢ times an
// integer (a big.Int: it cannot wrap) compared against speed_j·L — a load
// of exactly the budget is accepted and any excess, however marginal, is
// rejected. (The old float check admitted loads up to 1+1e-9, i.e.
// genuinely overloaded servers.) Streams with non-finite processing times
// or out-of-range assignments fail the check.
func CheckConst1Servers(streams []Stream, streamServer []int, servers []cluster.Server) bool {
	order, start, ok := byServer(streams, streamServer, len(servers))
	if !ok {
		return false
	}
	var sum ProcSum
	var lcm, q, k, t big.Int
	for j := range servers {
		on := order[start[j]:start[j+1]]
		if len(on) == 0 {
			continue
		}
		// L = lcm of the period numerators, so every sᵢ = Denᵢ/Numᵢ is the
		// integer Denᵢ·(L/Numᵢ) over L: Σ pᵢ·Denᵢ·(L/Numᵢ) ≤ speed·L.
		lcm.SetInt64(1)
		for _, i := range on {
			num := streams[i].Period.Num
			if q.QuoRem(&lcm, k.SetInt64(num), &t); t.Sign() != 0 {
				q.Mul(&lcm, k.SetInt64(num/gcd64(num, t.Int64())))
				lcm.Set(&q)
			}
		}
		sum.Reset()
		for _, i := range on {
			q.Quo(&lcm, t.SetInt64(streams[i].Period.Num))
			if !sum.addMul(streams[i].Proc, k.Mul(&q, t.SetInt64(streams[i].Period.Den))) {
				return false
			}
		}
		if !sum.within(&lcm, 1, servers[j].Speed()) {
			return false
		}
	}
	return true
}

// byServer buckets stream indices by assigned server, in stream order:
// order[start[j]:start[j+1]] are server j's streams. It reports false when
// an assignment is out of range.
func byServer(streams []Stream, streamServer []int, n int) (order, start []int, ok bool) {
	start = make([]int, n+2)
	for i := range streams {
		j := streamServer[i]
		if j < 0 || j >= n {
			return nil, nil, false
		}
		start[j+2]++
	}
	for j := 2; j < len(start); j++ {
		start[j] += start[j-1]
	}
	order = make([]int, len(streams))
	for i := range streams {
		j := streamServer[i]
		order[start[j+1]] = i
		start[j+1]++
	}
	return order, start[:n+1], true
}

// CheckConst2Servers verifies Eq. (7) exactly: on every server,
// Σ pᵢ ≤ gcd(T) · speed_j — the gcd of the periods of the streams scheduled
// there, scaled to the budget a server class at speed s (1 for a zero
// SpeedFactor) can actually clear inside one gcd window. The processing-time
// sum over a server is an exact ProcSum compared against the exact budget
// with no tolerance; the speed factor is a dyadic float64, so the scaled
// budget is an exact rational. The old check compared against gcds[j].Float()+1e-12,
// so a plan whose Σ pᵢ exceeds the gcd by up to 1e-12 passed while actually
// self-queueing — silently voiding the paper's zero-jitter latency claim
// (Theorems 1–3).
func CheckConst2Servers(streams []Stream, streamServer []int, servers []cluster.Server) bool {
	order, start, ok := byServer(streams, streamServer, len(servers))
	if !ok {
		return false
	}
	var sum ProcSum
	for j := range servers {
		on := order[start[j]:start[j+1]]
		if len(on) == 0 {
			continue
		}
		sum.Reset()
		var gcd Rational
		for _, i := range on {
			if !sum.Add(streams[i].Proc) {
				return false
			}
			gcd = RatGCD(gcd, streams[i].Period)
		}
		if !sum.Within(gcd, servers[j].Speed()) {
			return false
		}
	}
	return true
}

// Offsets returns every stream's Theorem 1 capture offset: each group's
// members are laid out back to back on the group's server
// (cluster.ZeroJitterOffsetsInPlaceOn, which accounts for the server's
// speed and uplink). Streams in no group keep offset 0.
func (p Plan) Offsets(streams []Stream, servers []cluster.Server) []float64 {
	offsets := make([]float64, len(streams))
	var sub []cluster.StreamSpec
	for g, members := range p.Groups {
		if len(members) == 0 {
			continue
		}
		sub = sub[:0]
		for _, si := range members {
			s := streams[si]
			sub = append(sub, cluster.StreamSpec{Period: s.Period.Float(), Proc: s.Proc, Bits: s.Bits})
		}
		cluster.ZeroJitterOffsetsInPlaceOn(sub, servers[p.GroupServer[g]])
		for k, si := range members {
			offsets[si] = sub[k].Offset
		}
	}
	return offsets
}
