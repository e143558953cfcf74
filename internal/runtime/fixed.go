package runtime

import (
	"context"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/videosim"
)

// FixedScheduler plans every video at one fixed configuration with
// Algorithm 1 zero-jitter grouping and Theorem 1 offsets each time it is
// asked — no optimization, just placement. It is mask-aware, so under
// faults it plans directly onto the surviving servers. Useful as a
// deterministic baseline and for fault-injection runs where the scheduling
// policy should stay out of the way.
type FixedScheduler struct {
	Cfg videosim.Config
}

// Decide implements Scheduler.
func (f *FixedScheduler) Decide(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error) {
	return f.DecideMasked(ctx, sys, nil, epoch)
}

// DecideCell implements CellDecider: every video in the cell gets the
// fixed configuration, trivially safe for concurrent cells.
func (f *FixedScheduler) DecideCell(ctx context.Context, sys *objective.System, videos []int, epoch int) ([]videosim.Config, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfgs := make([]videosim.Config, len(videos))
	for i := range cfgs {
		cfgs[i] = f.Cfg
	}
	return cfgs, nil
}

// DecideMasked implements MaskAware.
func (f *FixedScheduler) DecideMasked(ctx context.Context, sys *objective.System, healthy []bool, epoch int) (eva.Decision, error) {
	if err := ctx.Err(); err != nil {
		return eva.Decision{}, err
	}
	cfgs := make([]videosim.Config, sys.M())
	for i := range cfgs {
		cfgs[i] = f.Cfg
	}
	streams := eva.BuildStreams(sys, cfgs)
	plan, err := sched.ScheduleMasked(streams, sys.Servers, healthy)
	if err != nil {
		return eva.Decision{}, err
	}
	return eva.ZeroJitterDecision(cfgs, streams, plan, sys.Servers), nil
}
