package sched

import (
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/hungarian"
)

// Matcher is line 20 of Algorithm 1, the group→server match: it lays out
// the transmission-latency cost matrix over a caller-given list of physical
// server columns and solves it with the Hungarian algorithm. Every path that
// places groups on servers runs through one: MapGroups and ScheduleMasked
// (from a pool), the Replanner and each shard cell (each owns its own).
// Callers add only +Inf masks for their own feasibility rules between Build
// and Solve. The zero value is ready to use; a Matcher belongs to one
// goroutine at a time, and its buffers are reused across calls.
type Matcher struct {
	solver hungarian.Solver
	cost   [][]float64
	flat   []float64
	rows   int
	cols   []int   // column scratch of the pooled MapGroups/ScheduleMasked path
	sum    ProcSum // maskSpeedInfeasible's exact Σ proc
}

var matchPool = sync.Pool{New: func() any { return new(Matcher) }}

// Build lays out the square len(cols)×len(cols) cost matrix of one match
// and returns it for the caller's masks. Column c is physical server
// cols[c]. Row r < rows is a real group carrying bits(r) bits: it costs
// bits(r)/Uplink on a server with uplink, +Inf on a zero-uplink server when
// the group has bits, and 0 otherwise. The remaining rows are zero-bit dummy
// rows that cost 0 everywhere; they pad the matrix exactly as a full
// MapGroups over the same columns would, so Hungarian tie-breaking is one
// function of (bits, columns) whoever builds the matrix. The matrix is the
// Matcher's and valid until the next Build. Build panics when rows exceeds
// len(cols).
func (m *Matcher) Build(rows int, bits func(r int) float64, cols []int, servers []cluster.Server) [][]float64 {
	n := len(cols)
	if rows > n {
		panic("sched: more groups than server columns")
	}
	if cap(m.flat) < n*n {
		m.flat = make([]float64, n*n)
	}
	m.flat = m.flat[:n*n]
	if cap(m.cost) < n {
		m.cost = make([][]float64, n)
	}
	m.cost = m.cost[:n]
	m.rows = rows
	for r := range m.cost {
		row := m.flat[r*n : (r+1)*n]
		m.cost[r] = row
		if r >= rows {
			clear(row)
			continue
		}
		b := bits(r)
		for c, j := range cols {
			switch up := servers[j].Uplink; {
			case up > 0:
				row[c] = b / up
			case b > 0:
				row[c] = math.Inf(1)
			default:
				row[c] = 0
			}
		}
	}
	return m.cost
}

// Solve matches the built matrix. assign[r] is the column position (an index
// into Build's cols) of row r's server; it is the Matcher's and valid until
// the next Solve. total is the Hungarian total over every row. ok is false
// when some real row landed on a +Inf cell: no complete matching avoids
// both the zero-uplink cells and the caller's masks.
func (m *Matcher) Solve() (assign []int, total float64, ok bool) {
	assign, total = m.solver.Solve(m.cost)
	for r := 0; r < m.rows; r++ {
		if math.IsInf(m.cost[r][assign[r]], 1) {
			return assign, total, false
		}
	}
	return assign, total, true
}

// healthyCols appends the physical indices of the healthy servers among n,
// in ascending order, to dst (a nil mask means all are up): the column
// order of every match, so Hungarian tie-breaking is one function of the
// mask whichever path builds the matrix.
func healthyCols(dst []int, n int, healthy []bool) []int {
	for j := 0; j < n; j++ {
		if healthy == nil || healthy[j] {
			dst = append(dst, j)
		}
	}
	return dst
}

// groupBits is the total frame size of a group's members, summed in member
// order.
func groupBits(members []int, streams []Stream) float64 {
	var bits float64
	for _, si := range members {
		bits += streams[si].Bits
	}
	return bits
}

// hetero reports whether any server runs at an effective speed other than
// 1 — the case where the shared-gcd group budget must be re-checked per
// server class.
func hetero(servers []cluster.Server) bool {
	for _, s := range servers {
		if s.Speed() != 1 {
			return true
		}
	}
	return false
}

// maskSpeedInfeasible is MapGroups' mask on the built matrix: every
// non-empty group's row gets maskSlow over the columns, with its exact
// Σ proc and period gcd. A group with a non-finite processing time is left
// unmasked.
func (m *Matcher) maskSpeedInfeasible(groups [][]int, streams []Stream, servers []cluster.Server, cols []int) {
	for g, members := range groups {
		if len(members) == 0 {
			continue
		}
		m.sum.Reset()
		var gcd Rational
		finite := true
		for _, si := range members {
			finite = finite && m.sum.Add(streams[si].Proc)
			gcd = RatGCD(gcd, streams[si].Period)
		}
		if finite {
			maskSlow(m.cost[g], &m.sum, gcd, true, cols, servers)
		}
	}
}

// maskSlow sets a group's cost row to +Inf on every column whose server
// cannot clear the group within the speed-scaled Const2 budget,
// Σ_{i∈G} pᵢ ≤ gcd(T_G) · speed_j, checked exactly (procs are dyadic
// rationals, speeds are dyadic floats), so the match can never land a group
// on a server class too slow to run it without self-queueing. unitFits is
// the verdict at speed 1, which every caller already holds: a GroupStreams
// group fits there by construction, and the Replanner checks each drifted
// sum once.
func maskSlow(row []float64, sum *ProcSum, gcd Rational, unitFits bool, cols []int, servers []cluster.Server) {
	for c, j := range cols {
		if spd := servers[j].Speed(); spd == 1 && !unitFits || spd != 1 && !sum.Within(gcd, spd) {
			row[c] = math.Inf(1)
		}
	}
}
