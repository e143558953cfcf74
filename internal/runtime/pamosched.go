package runtime

import (
	"context"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/videosim"
)

// PaMOScheduler adapts the PaMO optimizer to the controller's Scheduler
// interface: every replan runs a fresh Algorithm 2 loop against the
// drifted system. Opt's Seed is advanced per epoch so repeated replans
// explore differently while remaining reproducible. DM answers the
// comparisons of a learned preference; with Opt.TruePref set the loop is
// PaMO+ and DM may be nil. It is mask-aware: after a server crash the
// optimizer plans directly onto the survivors via pamo.Options.ServerMask.
type PaMOScheduler struct {
	DM  pref.DecisionMaker
	Opt pamo.Options
}

// Decide implements Scheduler.
func (p *PaMOScheduler) Decide(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error) {
	return p.DecideMasked(ctx, sys, nil, epoch)
}

// DecideMasked implements MaskAware.
func (p *PaMOScheduler) DecideMasked(ctx context.Context, sys *objective.System, healthy []bool, epoch int) (eva.Decision, error) {
	opt := p.Opt
	opt.Seed += uint64(epoch) * 1009
	opt.ServerMask = healthy
	res, err := pamo.New(sys, p.DM, opt).RunContext(ctx)
	if err != nil {
		return eva.Decision{}, err
	}
	return res.Best.Decision, nil
}

// DecideCell implements CellDecider: one independent Algorithm 2 run over a
// sub-system holding only the cell's clips. Every pamo.New call owns its
// state, so concurrent cells never share mutable optimizer scratch. The
// optimizer's own placement is a feasibility witness for its configuration
// choice; the sharded control plane re-places the combined workload with
// shard.Plan. The seed is derived from (base seed, epoch, first video of
// the cell), so results are reproducible and independent of goroutine
// scheduling order.
func (p *PaMOScheduler) DecideCell(ctx context.Context, sys *objective.System, videos []int, epoch int) ([]videosim.Config, error) {
	if len(videos) == 0 {
		return nil, nil
	}
	clips := make([]*videosim.Clip, len(videos))
	for k, v := range videos {
		clips[k] = sys.Clips[v]
	}
	sub := &objective.System{Clips: clips, Servers: sys.Servers}
	opt := p.Opt
	opt.Seed += uint64(epoch)*1009 + uint64(videos[0])*2654435761
	res, err := pamo.New(sub, p.DM, opt).RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return res.Best.Decision.Configs, nil
}
