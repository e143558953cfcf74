package runtime

import (
	"context"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/sched"
)

// adoptIncremental installs a freshly scheduled decision as the replanner's
// baseline. The grouping is recovered from the assignment: streams sharing a
// server form one group — Algorithm 1 gives every group a distinct server,
// so this is exactly the grouping the plan came from, up to member order,
// which neither Const2 (a sum) nor Theorem 1's offsets (valid for any order)
// depend on. Decisions the fast path cannot extend — degraded, non-zero-
// jitter, or malformed — invalidate the baseline instead, forcing the next
// incremental attempt to decline.
func adoptIncremental(rp *sched.Replanner, d eva.Decision, n int) {
	if d.IsDegraded() || !d.ZeroJit || len(d.Streams) == 0 || len(d.Streams) != len(d.Assign) {
		rp.Invalidate()
		return
	}
	groups := make([][]int, n)
	for i, a := range d.Assign {
		if a < 0 || a >= n {
			rp.Invalidate()
			return
		}
		groups[a] = append(groups[a], i)
	}
	rp.Adopt(d.Streams, sched.Plan{Groups: groups})
}

// incrementalReplan attempts the amortized replan: keep the previous
// decision's configurations and grouping, recompute the planned per-frame
// costs from the drifted clips, and let the Replanner re-verify exact
// feasibility and re-solve only the group→server assignment over the healthy
// servers. ok=false means the fast path declined — stale baseline, changed
// periods, a group whose drifted processing no longer fits its exact gcd
// budget, or too few surviving servers — and the caller must fall back to a
// full scheduler invocation. ctx carries the epoch's trace context, so the
// replanner's sched_incremental span nests under the epoch span.
func (c *Controller) incrementalReplan(ctx context.Context, rp *sched.Replanner, sys *objective.System, prev eva.Decision, healthy []bool) (eva.Decision, bool) {
	if prev.IsDegraded() || !prev.ZeroJit || len(prev.Streams) == 0 {
		return eva.Decision{}, false
	}
	streams := eva.Recost(nil, sys, prev.Streams, prev.Configs)
	plan, ok := rp.IncrementalCtx(ctx, streams, sys.Servers, healthy)
	if !ok {
		return eva.Decision{}, false
	}
	return eva.ZeroJitterDecision(prev.Configs, streams, plan, sys.Servers), true
}
