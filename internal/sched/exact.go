package sched

import "math"

// Exact zero-jitter grouping by backtracking. The paper's related work
// notes non-preemptive periodic scheduling is strongly NP-hard [12] and
// usually solved exactly with ILP/CP/SMT encodings; this branch-and-bound
// search plays that role here. It decides Const2 feasibility exactly
// (Σ pᵢ ≤ gcd of periods per group), which is strictly weaker than the
// heuristic's Theorem 3 conditions — so it accepts every instance
// Algorithm 1 accepts, and some it rejects. Exponential; use for
// validation on small instances.

// ExactGroup searches for a partition of the streams into at most n groups
// satisfying Const2. It returns the groups and true, or nil and false when
// no such partition exists.
func ExactGroup(streams []Stream, n int) ([][]int, bool) {
	if n <= 0 {
		return nil, false
	}
	if len(streams) == 0 {
		return make([][]int, n), true
	}
	// Order by period ascending: tight streams first fail fast.
	order := make([]int, len(streams))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && streams[order[j]].Period.Cmp(streams[order[j-1]].Period) < 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Processing-time sums are exact ProcSums and the Const2 comparison is
	// tolerance-free, matching CheckConst2Servers at speed 1: the search
	// decides the same predicate the checker verifies.
	for _, s := range streams {
		if math.IsNaN(s.Proc) || math.IsInf(s.Proc, 0) {
			return nil, false
		}
	}
	groups := make([][]int, n)
	gcds := make([]Rational, n)
	procs := make([]ProcSum, n)
	used := 0 // number of non-empty groups, for symmetry breaking

	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return true
		}
		si := order[k]
		s := streams[si]
		// Try existing groups plus at most one fresh group (symmetry
		// breaking: all empty groups are interchangeable).
		limit := used
		if used < n {
			limit = used + 1
		}
		for j := 0; j < limit; j++ {
			newGCD := RatGCD(gcds[j], s.Period)
			procs[j].Add(s.Proc)
			if !procs[j].Within(newGCD, 1) {
				procs[j].Add(-s.Proc) // exact, so the undo restores Σ
				continue
			}
			oldGCD := gcds[j]
			wasEmpty := len(groups[j]) == 0
			groups[j] = append(groups[j], si)
			gcds[j] = newGCD
			if wasEmpty {
				used++
			}
			if rec(k + 1) {
				return true
			}
			groups[j] = groups[j][:len(groups[j])-1]
			gcds[j] = oldGCD
			procs[j].Add(-s.Proc)
			if wasEmpty {
				used--
			}
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	out := make([][]int, n)
	for j := range groups {
		out[j] = append([]int(nil), groups[j]...)
	}
	return out, true
}
