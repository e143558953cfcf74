// Package hungarian implements the O(n³) Hungarian (Kuhn–Munkres) algorithm
// for the linear assignment problem, in the potentials/shortest-augmenting-
// path formulation. Algorithm 1 of the paper uses it to map stream groups to
// edge servers while minimizing total transmission latency.
package hungarian

import "math"

// Solver runs the Hungarian algorithm with caller-owned, reusable buffers:
// repeated solves at the same (or smaller) problem size perform zero heap
// allocations. The zero value is ready to use. A Solver is not safe for
// concurrent use; pool one per goroutine.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
	assign     []int
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Solve is a one-shot Solver.Solve: the returned assign slice is the
// caller's.
func Solve(cost [][]float64) (assign []int, total float64) {
	var s Solver
	return s.Solve(cost)
}

// Solve assigns each of the n rows of cost to a distinct column (cost must
// be n×m with m ≥ n) minimizing the total cost. It returns the column index
// chosen for each row and the total cost. The assign slice is owned by the
// Solver and valid until the next call; callers that retain it must copy.
//
// Infeasible pairs can be encoded with a large-but-finite cost; +Inf entries
// are handled by substituting a finite sentinel larger than any other cost.
func (s *Solver) Solve(cost [][]float64) (assign []int, total float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	m := len(cost[0])
	if m < n {
		panic("hungarian: need at least as many columns as rows")
	}

	// Replace +Inf with a finite sentinel so the potentials stay finite.
	var maxFinite float64
	for _, row := range cost {
		if len(row) != m {
			panic("hungarian: ragged cost matrix")
		}
		for _, c := range row {
			if !math.IsInf(c, 1) && c > maxFinite {
				maxFinite = c
			}
		}
	}
	sentinel := (maxFinite + 1) * float64(n+1)
	at := func(i, j int) float64 {
		c := cost[i][j]
		if math.IsInf(c, 1) {
			return sentinel
		}
		return c
	}

	// 1-indexed potentials, as in the classic e-maxx formulation.
	s.u = growF(s.u, n+1)
	s.v = growF(s.v, m+1)
	s.minv = growF(s.minv, m+1)
	s.p = growI(s.p, m+1) // p[j] = row matched to column j (0 = none)
	s.way = growI(s.way, m+1)
	if cap(s.used) < m+1 {
		s.used = make([]bool, m+1)
	} else {
		s.used = s.used[:m+1]
	}
	u, v, p, way := s.u, s.v, s.p, s.way
	clear(u)
	clear(v)
	clear(p)
	clear(way)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv, used := s.minv, s.used
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := at(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		// Augment along the alternating path.
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	s.assign = growI(s.assign, n)
	assign = s.assign
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	for i, j := range assign {
		total += at(i, j)
	}
	return assign, total
}
