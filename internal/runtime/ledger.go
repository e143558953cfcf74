package runtime

import (
	"context"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/obs"
)

// Benefit attribution
//
// Each epoch with telemetry enabled, the controller decomposes the gap
// between the benefit the planner thought it bought and the benefit the
// epoch delivered by scoring the installed decision under a chain of
// counterfactual worlds, peeling one misfortune off at a time:
//
//	B0  baseline content, healthy cluster, shed videos restored  = Planned
//	B1  baseline content, healthy cluster, shed applied          → ShedLoss  = B0−B1
//	B2  drifted content, healthy cluster, shed applied           → DriftLoss ≈ B1−B2
//	B3  drifted content, faults applied (the epoch's real eval)  = Realized  → FaultLoss = B2−B3
//
// A sharded solve that falls back to the serial path costs decide latency,
// never benefit (the installed plan is exact either way), so it has no
// bucket; the ledger flags it (FellBack) next to the losses that matter.
// DriftLoss is the residual bucket obs.EpochLedger.Close nudges so the
// bucket sum telescopes to Planned−Realized with exact float equality.
//
// The counterfactual evaluations run through the same evaluate engine as
// the real epoch scoring with telemetry and audits suppressed: they are
// deterministic, RNG-free, and reuse the per-server arenas, so a recorded
// run's installed decisions and reports stay bit-identical to an
// unrecorded run — the goldens pin this.

// ledgerInput gathers what buildLedger needs from one epoch of Run.
type ledgerInput struct {
	epoch        int
	drifted      *objective.System // drifted clips; servers possibly link-scaled
	d            eva.Decision
	healthy      []bool
	stalledCams  []int
	realized     float64
	fellBack     bool
	replanFailed bool
	degraded     bool
	workers      int
}

// buildLedger runs the counterfactual chain and returns the closed ledger.
func (c *Controller) buildLedger(ctx context.Context, in ledgerInput) obs.EpochLedger {
	bene := func(sys *objective.System, d eva.Decision) float64 {
		out, _ := c.evaluate(ctx, sys, d, in.workers, nil, nil, in.epoch, false)
		return c.Truth.Benefit(c.Norm.Normalize(out))
	}
	baseSys := &objective.System{Clips: c.Sys.Clips, Servers: c.Sys.Servers}
	driftedClean := &objective.System{Clips: in.drifted.Clips, Servers: c.Sys.Servers}

	// B1: what the installed decision was worth in the world it was planned
	// for. B0 additionally restores the shed videos' analytic outcomes (their
	// streams are gone from the decision, so only the per-clip terms return).
	b1 := bene(baseSys, in.d)
	b0 := b1
	if len(in.d.Shed) > 0 {
		full := in.d
		full.Shed = nil
		b0 = bene(baseSys, full)
	}
	b2 := bene(driftedClean, in.d)

	led := obs.EpochLedger{
		Epoch:            in.epoch,
		Planned:          b0,
		Realized:         in.realized,
		ShedLoss:         b0 - b1,
		DriftLoss:        b1 - b2,
		FaultLoss:        b2 - in.realized,
		FellBack:         in.fellBack,
		ReplanFailed:     in.replanFailed,
		Degraded:         in.degraded,
		ShedVideos:       append([]int(nil), in.d.Shed...),
		DowngradedVideos: append([]int(nil), in.d.Downgraded...),
		ServersDown:      downServers(in.healthy),
		StalledCameras:   append([]int(nil), in.stalledCams...),
	}
	led.Close()
	return led
}

// recordLedgerMetrics mirrors the ledger's buckets onto the registry so
// Prometheus scrapes see the attribution without parsing JSONL.
func recordLedgerMetrics(reg *obs.Registry, l *obs.EpochLedger) {
	reg.Gauge("ledger_planned_benefit").Set(l.Planned)
	reg.Gauge("ledger_realized_benefit").Set(l.Realized)
	reg.Gauge("ledger_shed_loss").Set(l.ShedLoss)
	reg.Gauge("ledger_drift_loss").Set(l.DriftLoss)
	reg.Gauge("ledger_fault_loss").Set(l.FaultLoss)
	if l.FellBack {
		reg.Counter("ledger_fallbacks_total").Inc()
	}
}

// downServers lists the indices the liveness mask marks down (nil mask =
// none).
func downServers(healthy []bool) []int {
	var out []int
	for j, ok := range healthy {
		if !ok {
			out = append(out, j)
		}
	}
	return out
}
