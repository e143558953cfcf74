package runtime

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/videosim"
)

// CellDecider is the optional Scheduler extension the sharded control plane
// runs on: a scheduler that can choose configurations for one cell's videos
// in isolation. With Options.Shards > 1 the controller partitions the
// videos into cells, runs DecideCell for every cell concurrently, and hands
// the combined workload to shard.Plan — each cell placed by Algorithm 1 on
// its own slice of the servers — instead of the scheduler's own placement.
// Schedulers without this extension fall back to the serial decide path
// regardless of Shards.
type CellDecider interface {
	Scheduler
	// DecideCell returns one configuration per entry of videos (the cell's
	// video indices into sys.Clips, ascending). It must be safe for
	// concurrent calls with disjoint cells.
	DecideCell(ctx context.Context, sys *objective.System, videos []int, epoch int) ([]videosim.Config, error)
}

// decideSharded is the Shards>1 decide path: concurrent per-cell
// configuration decisions, then one sharded placement solve against an
// immutable snapshot of the (possibly fault-masked) cluster. The snapshot
// version is the epoch, so telemetry ties each solve back to control time.
// The returned shard.Stats tell the epoch's benefit-attribution ledger
// whether the solve fell back to the serial path.
func (c *Controller) decideSharded(ctx context.Context, cd CellDecider, sys *objective.System, healthy []bool, epoch int, opt Options) (eva.Decision, shard.Stats, error) {
	cells := shard.PartitionVideos(sys.M(), opt.Shards)
	cfgs := make([]videosim.Config, sys.M())
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for ci := range cells {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c.Obs.Do(ctx, "decide_cell", func(ctx context.Context) {
				cctx, csp := c.Obs.StartSpanCtx(ctx, "decide_cell",
					obs.F("cell", float64(ci)),
					obs.F("videos", float64(len(cells[ci]))))
				sub, err := cd.DecideCell(cctx, sys, cells[ci], epoch)
				csp.Field("failed", obs.Bool(err != nil))
				csp.End()
				if err != nil {
					errs[ci] = err
					return
				}
				if len(sub) != len(cells[ci]) {
					errs[ci] = fmt.Errorf("runtime: cell %d returned %d configs for %d videos", ci, len(sub), len(cells[ci]))
					return
				}
				for k, v := range cells[ci] {
					cfgs[v] = sub[k]
				}
			})
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return eva.Decision{}, shard.Stats{}, err
		}
	}
	if err := ctx.Err(); err != nil {
		return eva.Decision{}, shard.Stats{}, err
	}

	streams := eva.BuildStreams(sys, cfgs)
	snap := sched.NewSnapshot(uint64(epoch), sys.Servers, healthy)
	plan, stats, err := shard.Plan(ctx, streams, snap, shard.Options{Shards: opt.Shards, Obs: c.Obs, Check: opt.Check})
	if err != nil {
		return eva.Decision{}, stats, err
	}
	return eva.ZeroJitterDecision(cfgs, streams, plan, sys.Servers), stats, nil
}
