package hungarian

import (
	"math"
	"testing"
)

// FuzzSolverVsSolve pins the buffer-reusing Solver bit-exact against
// solveOracle, a one-shot Hungarian body with fresh buffers per solve,
// across random instances, including +Inf entries and rectangular shapes.
// One Solver instance is reused across two differently sized solves per
// input so stale-buffer bugs surface.
func FuzzSolverVsSolve(f *testing.F) {
	f.Add(uint64(1), 3, 3, false)
	f.Add(uint64(7), 2, 4, true)
	f.Add(uint64(99), 6, 7, true)
	var s Solver
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, withInf bool) {
		n = 1 + absInt(n)%7
		m = n + absInt(m)%4
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return float64((rng>>33)%1000) / 100
		}
		build := func(rows, cols int) [][]float64 {
			cost := make([][]float64, rows)
			for i := range cost {
				cost[i] = make([]float64, cols)
				for j := range cost[i] {
					cost[i][j] = next()
					if withInf && (rng>>20)%5 == 0 {
						cost[i][j] = math.Inf(1)
					}
				}
			}
			return cost
		}
		check := func(cost [][]float64) {
			t.Helper()
			wantAssign, wantTotal := solveOracle(cost)
			gotAssign, gotTotal := s.Solve(cost)
			if gotTotal != wantTotal {
				t.Fatalf("Solver total %v, oracle total %v (cost %v)", gotTotal, wantTotal, cost)
			}
			if len(gotAssign) != len(wantAssign) {
				t.Fatalf("Solver assign len %d, want %d", len(gotAssign), len(wantAssign))
			}
			for i := range wantAssign {
				if gotAssign[i] != wantAssign[i] {
					t.Fatalf("Solver assign %v, oracle assign %v (cost %v)", gotAssign, wantAssign, cost)
				}
			}
		}
		check(build(n, m))
		// Re-solve at a different (usually smaller) size with the same
		// Solver: reused buffers must not leak state between solves.
		check(build(1+n/2, m))
	})
}

// solveOracle is the Hungarian body as a one-shot function that allocates
// every buffer per solve: the reference the buffer-reusing Solver must
// match bit for bit (same potentials, same tie-breaking, same totals).
func solveOracle(cost [][]float64) (assign []int, total float64) {
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
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j (0 = none)
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
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

	assign = make([]int, n)
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
