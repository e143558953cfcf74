package sched

import (
	"context"
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Replanner amortizes Algorithm 1 across runtime epochs. A full solve pays
// for the O(m²) priority computation and exact greedy admission in
// GroupStreams on every call; in steady state, though, epochs differ only in
// drifted per-frame costs (Proc, Bits) and in which servers are healthy —
// the periods, and therefore every grouping-validity argument that depends
// on them, are unchanged. Replan exploits that: it keeps the previous
// grouping, re-verifies Const2 for the drifted processing times with one
// reused exact ProcSum, and re-solves only the group→server Hungarian
// mapping against the surviving servers.
//
// Fallback semantics (see DESIGN.md "Scaling"): the incremental path is
// taken only when it is provably as correct as a full solve — same streams
// (Video/Sub/Period), every group's drifted Σ proc still within the exact
// gcd of its periods (Const2, which implies Const1 since T_i ≥ gcd), and
// enough healthy servers for the non-empty groups. Anything else falls back
// to a cold ScheduleMasked, whose result is adopted as the new baseline.
// Incremental plans can be less optimal than a cold solve (the grouping is
// frozen), but never less feasible.
type Replanner struct {
	rec     *obs.Recorder // optional; see SetRecorder
	valid   bool
	streams []Stream   // adopted workload; periods are authoritative
	groups  [][]int    // adopted grouping (deep copy)
	ratGcds []Rational // per-group exact gcd of member periods (zero when empty)

	match Matcher
	sum   ProcSum // exact Σ proc of the group under test
	rows  []int   // group indices entering the assignment problem
	cols  []int   // physical indices of healthy servers
	seen  []bool  // Adopt's membership-coverage scratch
	remap []int   // Evict's old→new index scratch
	mtmp  []int   // Admit's trial-membership scratch
}

// NewReplanner returns an empty replanner; the first Replan always runs a
// full solve.
func NewReplanner() *Replanner { return &Replanner{} }

// SetRecorder attaches a recorder: IncrementalCtx then emits one
// "sched_incremental" span per attempt (fields: streams, taken) nested
// under the caller's trace context, plus sched_incremental_total /
// sched_incremental_declined_total counters. Nil (the default) disables
// telemetry at zero cost.
func (r *Replanner) SetRecorder(rec *obs.Recorder) { r.rec = rec }

// IncrementalCtx is Incremental with trace-context propagation: the span
// it emits (when a recorder is attached) parents under the span carried by
// ctx, so an epoch's incremental replan shows up inside the epoch's trace.
func (r *Replanner) IncrementalCtx(ctx context.Context, streams []Stream, servers []cluster.Server, healthy []bool) (Plan, bool) {
	if r.rec == nil {
		return r.Incremental(streams, servers, healthy)
	}
	_, sp := r.rec.StartSpanCtx(ctx, "sched_incremental", obs.F("streams", float64(len(streams))))
	plan, ok := r.Incremental(streams, servers, healthy)
	sp.Field("taken", obs.Bool(ok))
	sp.End()
	r.rec.Registry().Counter("sched_incremental_total").Inc()
	if !ok {
		r.rec.Registry().Counter("sched_incremental_declined_total").Inc()
	}
	return plan, ok
}

// Invalidate drops the adopted grouping, forcing the next Replan to run a
// full solve. Call it when the workload changes shape outside Replan's view.
func (r *Replanner) Invalidate() { r.valid = false }

// Replan schedules the streams onto the healthy servers (nil mask = all
// healthy), reusing the previously adopted grouping when valid and falling
// back to a full ScheduleMasked otherwise. The boolean reports whether the
// incremental path was taken.
func (r *Replanner) Replan(streams []Stream, servers []cluster.Server, healthy []bool) (Plan, bool, error) {
	if plan, ok := r.Incremental(streams, servers, healthy); ok {
		return plan, true, nil
	}
	plan, err := ScheduleMasked(streams, servers, healthy)
	if err != nil {
		r.valid = false
		return Plan{}, false, err
	}
	r.Adopt(streams, plan)
	return plan, false, nil
}

// Adopt installs plan as the incremental baseline for subsequent calls. The
// plan must be a feasible schedule of streams (as produced by Schedule,
// ScheduleMasked, or a verified external decision); streams and grouping are
// deep-copied.
//
// The grouping is keyed by stream index, so a plan whose membership does not
// exactly cover streams — stale indices after an eviction shrank the slice,
// a duplicate, or a gap — would silently wire the wrong stream into a group
// (or index out of range on the next Incremental). Adopt therefore validates
// coverage first and invalidates the baseline instead of corrupting it.
func (r *Replanner) Adopt(streams []Stream, plan Plan) {
	if cap(r.seen) < len(streams) {
		r.seen = make([]bool, len(streams))
	}
	r.seen = r.seen[:len(streams)]
	for i := range r.seen {
		r.seen[i] = false
	}
	for _, members := range plan.Groups {
		for _, si := range members {
			if si < 0 || si >= len(streams) || r.seen[si] {
				r.valid = false
				return
			}
			r.seen[si] = true
		}
	}
	for _, ok := range r.seen {
		if !ok {
			r.valid = false
			return
		}
	}
	r.streams = append(r.streams[:0], streams...)
	if cap(r.groups) < len(plan.Groups) {
		r.groups = make([][]int, len(plan.Groups))
	}
	r.groups = r.groups[:len(plan.Groups)]
	r.ratGcds = r.ratGcds[:0]
	for g, members := range plan.Groups {
		r.groups[g] = append(r.groups[g][:0], members...)
		gcd := Rational{} // an empty group has no Const2 budget to check
		for _, si := range members {
			gcd = RatGCD(gcd, streams[si].Period)
		}
		r.ratGcds = append(r.ratGcds, gcd)
	}
	r.valid = true
}

// sumProcs accumulates Σ streams[si].Proc over members into r.sum,
// exactly. A non-finite processing time reports false — the caller treats
// the drift as unverifiable and falls back.
func (r *Replanner) sumProcs(streams []Stream, members []int) bool {
	r.sum.Reset()
	for _, si := range members {
		if !r.sum.Add(streams[si].Proc) {
			return false
		}
	}
	return true
}

// Incremental attempts the grouping-reusing replan described on Replanner.
// It returns ok=false — without touching the adopted state — whenever the
// fast path cannot prove feasibility, leaving the decision to fall back to
// the caller.
func (r *Replanner) Incremental(streams []Stream, servers []cluster.Server, healthy []bool) (Plan, bool) {
	if !r.valid || len(streams) != len(r.streams) {
		return Plan{}, false
	}
	if healthy != nil && len(healthy) != len(servers) {
		return Plan{}, false
	}
	// The grouping's validity argument rests on the periods (and stream
	// identity); any change there needs a full regroup.
	for i, s := range streams {
		p := r.streams[i]
		if s.Video != p.Video || s.Sub != p.Sub || s.Period != p.Period {
			return Plan{}, false
		}
	}
	r.cols = healthyCols(r.cols[:0], len(servers), healthy)
	if len(r.cols) == 0 {
		return Plan{}, false
	}
	// Row selection: normally every group keeps a server (the shape MapGroups
	// produces); when an outage leaves fewer servers than groups, only the
	// non-empty groups compete, and the plan compacts to them.
	r.rows = r.rows[:0]
	if len(r.groups) <= len(r.cols) {
		for g := range r.groups {
			r.rows = append(r.rows, g)
		}
	} else {
		for g, members := range r.groups {
			if len(members) > 0 {
				r.rows = append(r.rows, g)
			}
		}
		if len(r.rows) > len(r.cols) {
			return Plan{}, false
		}
	}

	// Const2 with drifted processing times, exactly: per (group, server),
	// Σ proc ≤ gcd(periods)·speed, as a mask on the match. Since the gcd
	// divides every member period this also implies Const1
	// (Σ p_i/T_i ≤ Σ p_i/gcd ≤ speed). A forced +Inf assignment (a zero
	// uplink for a group's bits, or no server class fitting a group)
	// declines, leaving the decision to the caller's full, re-grouping solve.
	cost := r.match.Build(len(r.rows), func(ri int) float64 { return groupBits(r.groups[r.rows[ri]], streams) }, r.cols, servers)
	for ri, g := range r.rows {
		if len(r.groups[g]) == 0 {
			continue
		}
		if !r.sumProcs(streams, r.groups[g]) {
			return Plan{}, false
		}
		maskSlow(cost[ri], &r.sum, r.ratGcds[g], r.sum.Within(r.ratGcds[g], 1), r.cols, servers)
	}
	assign, total, ok := r.match.Solve()
	if !ok {
		return Plan{}, false
	}

	groups := make([][]int, len(r.rows))
	for ri, g := range r.rows {
		groups[ri] = append([]int(nil), r.groups[g]...)
	}
	return place(groups, assign, r.cols, len(streams), total), true
}

// Evict removes every stream i with remove[i] from the adopted baseline
// without a re-solve. Removal only shrinks a group's Σ proc and can only
// coarsen (raise) its period gcd, so the frozen grouping stays feasible by
// construction — groups shrink in place (possibly to empty) and surviving
// member indices are remapped onto the compacted stream slice. Reports
// false, leaving the baseline untouched, only when there is no valid
// baseline or the mask has the wrong length.
func (r *Replanner) Evict(remove []bool) bool {
	if !r.valid || len(remove) != len(r.streams) {
		return false
	}
	if cap(r.remap) < len(r.streams) {
		r.remap = make([]int, len(r.streams))
	}
	r.remap = r.remap[:len(r.streams)]
	n := 0
	for i := range r.streams {
		if remove[i] {
			r.remap[i] = -1
			continue
		}
		r.remap[i] = n
		r.streams[n] = r.streams[i]
		n++
	}
	if n == len(r.streams) {
		return true // nothing flagged
	}
	r.streams = r.streams[:n]
	for g, members := range r.groups {
		k := 0
		dropped := false
		for _, si := range members {
			ni := r.remap[si]
			if ni < 0 {
				dropped = true
				continue
			}
			members[k] = ni
			k++
		}
		r.groups[g] = members[:k]
		if !dropped {
			continue // same membership, same gcd
		}
		gcd := Rational{}
		for _, si := range r.groups[g] {
			gcd = RatGCD(gcd, r.streams[si].Period)
		}
		r.ratGcds[g] = gcd
		if k > 0 && r.rec != nil {
			r.rec.Registry().Counter("sched_evict_regcd_total").Inc()
		}
	}
	if r.rec != nil {
		r.rec.Registry().Counter("sched_evict_total").Inc()
	}
	return true
}

// Admit inserts the arriving stream into the adopted baseline without a
// full resolve, preferring an existing group whose exact Const2 budget
// still holds. Group compatibility keeps the gcd structure intact: either
// the new period is an integer multiple of the group gcd (gcd unchanged),
// or the gcd is a multiple of the new period (gcd refines to it) — an
// unrelated period would collapse the gcd and starve the whole group. The
// budget check is the exact dyadic Σ proc + p ≤ gcd' · maxSpeed over the
// healthy servers; that is a necessary condition, and the subsequent
// Incremental call settles the exact per-server placement (masking
// speed-infeasible pairs), declining — and thereby forcing the caller's
// full-resolve fallback — if the Hungarian assignment cannot realize it.
// When no group fits, a new singleton group opens, provided a healthy
// server column remains for it. Returns the group index the stream joined
// and ok; on ok=false the baseline is unchanged.
func (r *Replanner) Admit(s Stream, servers []cluster.Server, healthy []bool) (int, bool) {
	g, ok := r.admit(s, servers, healthy)
	if r.rec != nil {
		reg := r.rec.Registry()
		reg.Counter("sched_admit_total").Inc()
		if !ok {
			reg.Counter("sched_admit_declined_total").Inc()
		}
	}
	return g, ok
}

func (r *Replanner) admit(s Stream, servers []cluster.Server, healthy []bool) (int, bool) {
	if !r.valid || s.Period.Num <= 0 || s.Period.Den <= 0 {
		return -1, false
	}
	if math.IsNaN(s.Proc) || math.IsInf(s.Proc, 0) || s.Proc < 0 {
		return -1, false
	}
	if healthy != nil && len(healthy) != len(servers) {
		return -1, false
	}
	maxSpd := 0.0
	nHealthy := 0
	for j := range servers {
		if healthy == nil || healthy[j] {
			nHealthy++
			if spd := servers[j].Speed(); spd > maxSpd {
				maxSpd = spd
			}
		}
	}
	if nHealthy == 0 {
		return -1, false
	}

	// Tentatively append so the trial membership can be summed uniformly;
	// popped again on decline.
	r.streams = append(r.streams, s)
	si := len(r.streams) - 1

	// Pass 0: groups the new period slots into without changing the gcd.
	// Pass 1: groups whose gcd refines to the new period. First fit within a
	// pass — deterministic, and Algorithm 1's period-sorted construction
	// means earlier groups hold the longer periods (the roomier budgets).
	for pass := 0; pass < 2; pass++ {
		for g, members := range r.groups {
			if len(members) == 0 {
				continue
			}
			gcd := r.ratGcds[g]
			if pass == 0 {
				if !s.Period.IsMultipleOf(gcd) {
					continue
				}
			} else {
				if s.Period.IsMultipleOf(gcd) || !gcd.IsMultipleOf(s.Period) {
					continue
				}
			}
			newGcd := RatGCD(gcd, s.Period)
			r.mtmp = append(r.mtmp[:0], members...)
			r.mtmp = append(r.mtmp, si)
			if !r.sumProcs(r.streams, r.mtmp) || !r.sum.Within(newGcd, maxSpd) {
				continue
			}
			r.groups[g] = append(r.groups[g], si)
			r.ratGcds[g] = newGcd
			if r.rec != nil {
				r.rec.Registry().Counter("sched_admit_hits_total").Inc()
			}
			return g, true
		}
	}

	// No compatible group: open a singleton, reusing an empty slot when one
	// exists so the plan shape (and Hungarian tie-breaking) stays stable.
	// The stream must fit the fastest healthy server on its own, and a
	// server column must remain for the extra non-empty group.
	nonEmpty := 0
	slot := -1
	for g, members := range r.groups {
		if len(members) > 0 {
			nonEmpty++
		} else if slot < 0 {
			slot = g
		}
	}
	r.mtmp = append(r.mtmp[:0], si)
	if nonEmpty >= nHealthy || !r.sumProcs(r.streams, r.mtmp) || !r.sum.Within(s.Period, maxSpd) {
		r.streams = r.streams[:si]
		return -1, false
	}
	if slot < 0 {
		r.groups = append(r.groups, nil)
		r.ratGcds = append(r.ratGcds, Rational{})
		slot = len(r.groups) - 1
	}
	r.groups[slot] = append(r.groups[slot][:0], si)
	r.ratGcds[slot] = s.Period
	if r.rec != nil {
		r.rec.Registry().Counter("sched_admit_new_group_total").Inc()
	}
	return slot, true
}

// Streams returns the adopted baseline workload (nil when invalid). The
// slice is the replanner's own — callers must treat it as read-only.
func (r *Replanner) Streams() []Stream {
	if !r.valid {
		return nil
	}
	return r.streams
}

// RemapVideos rewrites the adopted streams' Video indices through remap
// (old → new). The runtime calls this after an eviction compacted its clip
// slice, so the baseline keeps matching the caller's post-churn indexing —
// Incremental compares stream identity field by field. A reference to a
// removed (negative) or out-of-range entry invalidates the baseline: it
// means the eviction mask and the remap disagree.
func (r *Replanner) RemapVideos(remap []int) bool {
	if !r.valid {
		return false
	}
	for i := range r.streams {
		v := r.streams[i].Video
		if v < 0 || v >= len(remap) || remap[v] < 0 {
			r.valid = false
			return false
		}
		r.streams[i].Video = remap[v]
	}
	return true
}
