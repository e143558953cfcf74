package sched

import (
	"errors"
	"math"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/hungarian"
)

// FuzzReplanVsSchedule differentially fuzzes the incremental replanner
// against the full Algorithm 1 solve. Epoch 0 must reproduce ScheduleMasked
// byte-exactly (it IS a full solve plus adoption); drifted epochs taking the
// incremental path must (a) match the oracle — a one-shot Hungarian re-map
// of the frozen grouping onto the healthy survivors, its cost matrix and
// speed masks built independently — and (b) still pass the exact
// speed-aware Const1/Const2 verifiers, so "incremental" never means "less
// feasible". Epochs where the fast path declines must fall back to a plan
// byte-identical to a cold ScheduleMasked. The servers mix speeds and draw
// the occasional zero uplink.
func FuzzReplanVsSchedule(f *testing.F) {
	f.Add(uint64(1), 4, 3, uint8(0))
	f.Add(uint64(42), 8, 5, uint8(2))
	f.Add(uint64(7), 1, 1, uint8(1))
	f.Add(uint64(1234), 12, 4, uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, m, n int, downBits uint8) {
		m = 1 + abs(m)%12
		n = 1 + abs(n)%5
		fps := []int64{5, 6, 10, 15, 25, 30}
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
				Proc:   p.Float() * (0.05 + 0.6*float64(next(100))/100),
				Bits:   1e6 * (1 + float64(next(20))),
			}
		}
		servers := fuzzServers(n, next)

		rp := NewReplanner()
		first, inc, err := rp.Replan(base, servers, nil)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("non-infeasible error: %v", err)
			}
			return
		}
		if inc {
			t.Fatal("first Replan claimed the incremental path")
		}
		want, err := ScheduleMasked(base, servers, nil)
		if err != nil {
			t.Fatalf("full solve failed where Replan succeeded: %v", err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("first Replan diverged from full solve:\n%+v\n%+v", first, want)
		}
		prevGroups := make([][]int, len(first.Groups))
		for g := range first.Groups {
			prevGroups[g] = append([]int(nil), first.Groups[g]...)
		}

		// Drift the per-frame costs and optionally take servers down.
		streams := make([]Stream, m)
		copy(streams, base)
		for i := range streams {
			streams[i].Proc = base[i].Proc * (0.8 + 0.5*float64(next(100))/100)
			streams[i].Bits = base[i].Bits * (0.5 + 1.5*float64(next(100))/100)
		}
		var healthy []bool
		alive := n
		if downBits != 0 {
			healthy = make([]bool, n)
			alive = 0
			for j := range healthy {
				healthy[j] = downBits&(1<<j) == 0
				if healthy[j] {
					alive++
				}
			}
			if alive == 0 {
				healthy[next(n)] = true
				alive = 1
			}
		}

		plan, inc, err := rp.Replan(streams, servers, healthy)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("drifted replan: non-infeasible error: %v", err)
			}
			return
		}
		live := 0
		for i := range streams {
			if plan.StreamServer[i] >= 0 {
				live++
			}
			if j := plan.StreamServer[i]; healthy != nil && j >= 0 && !healthy[j] {
				t.Fatalf("stream %d assigned to down server %d", i, j)
			}
		}
		if live != m {
			t.Fatalf("replan placed %d of %d streams", live, m)
		}
		if !CheckConst1Servers(streams, plan.StreamServer, servers) {
			t.Fatalf("replanned plan violates Const1 (incremental=%v): %+v", inc, plan)
		}
		if !CheckConst2Servers(streams, plan.StreamServer, servers) {
			t.Fatalf("replanned plan violates Const2 (incremental=%v): %+v", inc, plan)
		}

		if !inc {
			// Fallback epochs must be byte-identical to a cold full solve.
			cold, err := ScheduleMasked(streams, servers, healthy)
			if err != nil {
				t.Fatalf("cold solve failed where fallback succeeded: %v", err)
			}
			if !reflect.DeepEqual(plan, cold) {
				t.Fatalf("fallback diverged from cold solve:\n%+v\n%+v", plan, cold)
			}
			return
		}

		// Oracle for the incremental path: the frozen grouping re-mapped by a
		// one-shot Hungarian solve over the healthy survivors, on a cost
		// matrix built here from independent code — Σ bits / uplink (+Inf on
		// a zero uplink for a group with bits), zero padding rows, and every
		// (group, server) pair over its exact gcd·speed budget masked by the
		// big.Rat oracle.
		cols := make([]int, 0, n)
		for j := 0; j < n; j++ {
			if healthy == nil || healthy[j] {
				cols = append(cols, j)
			}
		}
		rows := prevGroups
		if len(prevGroups) > len(cols) {
			rows = nil
			for _, g := range prevGroups {
				if len(g) > 0 {
					rows = append(rows, g)
				}
			}
		}
		cost := make([][]float64, len(cols))
		for r := range cost {
			cost[r] = make([]float64, len(cols))
			if r >= len(rows) {
				continue
			}
			var bits float64
			var procs []float64
			var gcd *big.Rat
			for _, si := range rows[r] {
				bits += streams[si].Bits
				procs = append(procs, streams[si].Proc)
				gcd = ratGCD(gcd, streams[si].Period)
			}
			sum := ratSum(procs)
			for c, j := range cols {
				switch {
				case len(rows[r]) > 0 && (sum == nil || !ratWithin(sum, gcd, servers[j].Speed())):
					cost[r][c] = math.Inf(1)
				case servers[j].Uplink > 0:
					cost[r][c] = bits / servers[j].Uplink
				case bits > 0:
					cost[r][c] = math.Inf(1)
				}
			}
		}
		assign, total := hungarian.Solve(cost)
		for r := range rows {
			if math.IsInf(cost[r][assign[r]], 1) {
				t.Fatalf("incremental plan taken where the oracle match is infeasible (group %d): %+v", r, plan)
			}
		}
		if len(plan.Groups) != len(rows) || len(plan.GroupServer) != len(cols) {
			t.Fatalf("incremental plan shape %d groups/%d assignments, oracle %d/%d",
				len(plan.Groups), len(plan.GroupServer), len(rows), len(cols))
		}
		for g := range plan.GroupServer {
			if got, want := plan.GroupServer[g], cols[assign[g]]; got != want {
				t.Fatalf("group %d on server %d, oracle says %d", g, got, want)
			}
		}
		if plan.CommLatency != total {
			t.Fatalf("incremental comm latency %v, oracle %v", plan.CommLatency, total)
		}
	})
}
