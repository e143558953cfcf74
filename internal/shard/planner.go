// Package shard is the sharded control plane. The streams are cut into
// cells by video (the PartitionVideos cells the controller's per-cell
// schedulers decide over), the healthy servers into one disjoint slice per
// cell, and every cell runs Algorithm 1 (sched.ScheduleMasked) on its own
// slice, all cells concurrently. The per-cell plans are concatenated into
// one plan. When any cell cannot place on its slice, one serial
// ScheduleMasked over the whole workload decides instead.
//
// # Why the concatenated plan is zero-jitter
//
// No server ever holds streams of two cells: the slices are disjoint, and a
// cell's ScheduleMasked only places on its own slice. Each server therefore
// runs exactly one Algorithm 1 group, and Theorem 1's per-group offset
// argument applies as it does to the serial scheduler. There is no shared
// state between cells, so nothing can conflict and there is nothing to
// arbitrate.
//
// # Determinism
//
// The cells are a pure function of the video ids, the slices a pure
// function of (cells, stream costs, healthy mask, uplinks), and each cell's
// plan a pure function of its streams and its slice. Every cell writes only
// its own result, and the merge runs in cell order after all cells are
// done, so the plan does not depend on goroutine order.
package shard

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Options configures a sharded solve.
type Options struct {
	// Shards is the number of cells the streams are cut into. With
	// Shards ≤ 1 the solve IS the serial scheduler (one
	// sched.ScheduleMasked call), byte for byte.
	Shards int
	// Obs receives shard_* metrics and the solve's spans. Nil disables
	// telemetry at zero cost.
	Obs *obs.Recorder
	// Check, when non-nil, audits every returned plan — concatenated or
	// fallen back — against the exact feasibility constraints; under a
	// strict checker a violation aborts the solve.
	Check *check.Checker
}

// Stats reports how one sharded solve went.
type Stats struct {
	Shards int
	// Commits counts the cells whose slice plan is in the returned plan
	// (1 for a serial solve, 0 after a fallback).
	Commits int
	// FellBack marks a solve that some cell could not place on its slice,
	// decided instead by one serial ScheduleMasked over the whole workload.
	FellBack bool
}

// Plan schedules the streams against the snapshot and returns the plan plus
// the solve's stats. The plan satisfies the exact Const1/Const2
// feasibility constraints on every server, or an error (wrapping
// sched.ErrInfeasible when capacity is the reason) is returned. The
// shard_plan span parents under the span carried by ctx; the concurrent
// per-cell phase is one shard_round span with a shard_cell child per cell.
func Plan(ctx context.Context, streams []sched.Stream, snap *sched.Snapshot, opt Options) (sched.Plan, Stats, error) {
	st := Stats{Shards: max(opt.Shards, 1)}
	reg := opt.Obs.Registry()
	pctx, sp := opt.Obs.StartSpanCtx(ctx, "shard_plan",
		obs.F("shards", float64(st.Shards)),
		obs.F("streams", float64(len(streams))),
		obs.F("version", float64(snap.Version())))
	defer func() {
		sp.Field("fellback", obs.Bool(st.FellBack))
		sp.End()
	}()
	reg.Counter("shard_plans_total").Inc()

	var cells [][]int
	if st.Shards > 1 {
		cells = cellsOf(streams, st.Shards)
	}
	if len(cells) > 1 {
		if plan, ok := placeCells(pctx, streams, cells, snap, opt.Obs); ok {
			st.Commits = len(cells)
			reg.Counter("shard_commits_total").Add(uint64(len(cells)))
			return plan, st, opt.Check.VerifyPlanServers(streams, plan, snap.Servers(), snap.Healthy())
		}
		st.FellBack = true
		reg.Counter("shard_fallbacks_total").Inc()
	}
	plan, err := sched.ScheduleMasked(streams, snap.Servers(), snap.Healthy())
	if err != nil {
		return sched.Plan{}, st, err
	}
	if !st.FellBack {
		st.Commits = 1
	}
	return plan, st, opt.Check.VerifyPlanServers(streams, plan, snap.Servers(), snap.Healthy())
}

// cellsOf cuts the streams into the PartitionVideos cells of their videos:
// stream-index lists, ascending, one per cell. A split stream's sub-streams
// share their video and so their cell. Every video has streams in a
// workload eva.BuildStreams built, so m is the video count and these are
// the cells the controller's DecideCell calls decided over.
func cellsOf(streams []sched.Stream, shards int) [][]int {
	m := 0
	for _, s := range streams {
		m = max(m, s.Video+1)
	}
	videoCell := make([]int, m)
	parts := PartitionVideos(m, shards)
	for c, videos := range parts {
		for _, v := range videos {
			videoCell[v] = c
		}
	}
	cells := make([][]int, len(parts))
	for i, s := range streams {
		c := videoCell[s.Video]
		cells[c] = append(cells[c], i)
	}
	return cells
}

// placeCells runs ScheduleMasked for every cell on its own slice,
// concurrently, and concatenates the cell plans in cell order. It reports
// false when some cell could not place on its slice.
func placeCells(ctx context.Context, streams []sched.Stream, cells [][]int, snap *sched.Snapshot, rec *obs.Recorder) (sched.Plan, bool) {
	slice := cut(streams, cells, snap)
	rctx, rsp := rec.StartSpanCtx(ctx, "shard_round", obs.F("cells", float64(len(cells))))
	plans := make([]sched.Plan, len(cells))
	placed := make([]bool, len(cells))
	var wg sync.WaitGroup
	for c := range cells {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec.Do(rctx, "shard_cell", func(ctx context.Context) {
				_, csp := rec.StartSpanCtx(ctx, "shard_cell",
					obs.F("cell", float64(c)),
					obs.F("streams", float64(len(cells[c]))),
					obs.F("servers", float64(len(slice[c]))))
				plans[c], placed[c] = placeCell(streams, cells[c], slice[c], snap)
				csp.Field("placed", obs.Bool(placed[c]))
				csp.End()
			})
		}(c)
	}
	wg.Wait()
	rsp.End()
	if slices.Contains(placed, false) {
		return sched.Plan{}, false
	}

	plan := sched.Plan{StreamServer: make([]int, len(streams))}
	for c, cp := range plans {
		for g, members := range cp.Groups {
			for k, li := range members {
				members[k] = cells[c][li]
			}
			plan.Groups = append(plan.Groups, members)
			plan.GroupServer = append(plan.GroupServer, cp.GroupServer[g])
		}
		for li, j := range cp.StreamServer {
			plan.StreamServer[cells[c][li]] = j
		}
		plan.CommLatency += cp.CommLatency
	}
	return plan, true
}

// placeCell is one cell's Algorithm 1 on its slice. The plan's members are
// cell-local stream indices; its servers are physical indices. An empty
// slice is a mask with no healthy server, which ScheduleMasked declines.
func placeCell(streams []sched.Stream, cell, slice []int, snap *sched.Snapshot) (sched.Plan, bool) {
	local := make([]sched.Stream, len(cell))
	for k, si := range cell {
		local[k] = streams[si]
	}
	mask := make([]bool, snap.NumServers())
	for _, j := range slice {
		mask[j] = true
	}
	plan, err := sched.ScheduleMasked(local, snap.Servers(), mask)
	return plan, err == nil
}

// cut deals the healthy servers into one disjoint slice per cell. A slice's
// size follows its cell's share of the compute load Σ p/T (the share of
// streams when the load is not a positive finite number), rounded by
// largest remainder after every cell with streams has been given one
// server — when there are at least as many healthy servers as such cells.
// The servers, sorted by (uplink descending, index), are dealt in snake
// order — cells 0..C−1, then C−1..0, skipping full slices — so every slice
// gets a similar mix of fast and slow links.
func cut(streams []sched.Stream, cells [][]int, snap *sched.Snapshot) [][]int {
	out := make([][]int, len(cells))
	weight := make([]float64, len(cells))
	var total float64
	live := 0
	for c, cell := range cells {
		if len(cell) > 0 {
			live++
		}
		for _, si := range cell {
			if u := streams[si].Proc / streams[si].Period.Float(); u > 0 {
				weight[c] += u
			}
		}
		total += weight[c]
	}
	if !(total > 0) || math.IsInf(total, 1) {
		total = 0
		for c, cell := range cells {
			weight[c] = float64(len(cell))
			total += weight[c]
		}
	}

	order := snap.HealthyIndices(nil)
	servers := snap.Servers()
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(servers[b].Uplink, servers[a].Uplink) })

	size := make([]int, len(cells))
	rest := len(order)
	if rest >= live {
		for c, cell := range cells {
			if len(cell) > 0 {
				size[c] = 1
			}
		}
		rest -= live
	}
	type remainder struct {
		cell int
		frac float64
	}
	var rems []remainder
	left := rest
	for c, cell := range cells {
		if len(cell) == 0 {
			continue
		}
		q := float64(rest) * weight[c] / total
		whole := int(q)
		size[c] += whole
		left -= whole
		rems = append(rems, remainder{c, q - float64(whole)})
	}
	slices.SortStableFunc(rems, func(a, b remainder) int { return cmp.Compare(b.frac, a.frac) })
	for k := 0; k < left; k++ {
		size[rems[k].cell]++
	}

	for next, fwd := 0, true; next < len(order); fwd = !fwd {
		for t := range cells {
			c := t
			if !fwd {
				c = len(cells) - 1 - t
			}
			if next < len(order) && len(out[c]) < size[c] {
				out[c] = append(out[c], order[next])
				next++
			}
		}
	}
	return out
}
