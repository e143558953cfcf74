package exp

import (
	"context"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// Methods lists the scheduler names Scheduler accepts.
const Methods = "pamo | pamo+ | jcab | fact | fixed"

// Scheduler builds the named scheduling method as a runtime.Scheduler, so
// one table serves both an offline decision (Decide(ctx, sys, 0)) and the
// online control loop. truth is the hidden preference: PaMO asks an oracle
// over it, PaMO+ optimizes it directly, and the baselines read their
// weights from it. base carries the PaMO seed, budgets, telemetry and
// checker; the baselines take only its seed, advanced by the epoch.
func Scheduler(method string, truth objective.Preference, base pamo.Options) (runtime.Scheduler, error) {
	seed := base.Seed
	switch method {
	case "pamo":
		return &runtime.PaMOScheduler{DM: &pref.Oracle{Pref: truth, Rng: stats.NewRNG(seed)}, Opt: base}, nil
	case "pamo+":
		base.TruePref = &truth
		return &runtime.PaMOScheduler{Opt: base}, nil
	case "jcab":
		return runtime.SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
			return baselines.JCAB(ctx, s, baselines.JCABOptions{
				WAcc: truth.W[objective.Accuracy], WEng: truth.W[objective.Energy], Seed: seed + uint64(epoch)})
		}), nil
	case "fact":
		return runtime.SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
			return baselines.FACT(ctx, s, baselines.FACTOptions{
				WLat: truth.W[objective.Latency], WAcc: truth.W[objective.Accuracy], Seed: seed + uint64(epoch)})
		}), nil
	case "fixed":
		return &runtime.FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}, nil
	}
	return nil, fmt.Errorf("unknown method %q (want %s)", method, Methods)
}

// FastOptions is the shrunken PaMO budget of the commands' -fast quick
// pass: a handful of profiles, comparisons and BO iterations per run.
func FastOptions() pamo.Options {
	return pamo.Options{InitProfiles: 12, InitObs: 3, PrefPairs: 10, PrefPool: 12,
		Batch: 2, MCSamples: 16, CandPool: 10, MaxIter: 5}
}
