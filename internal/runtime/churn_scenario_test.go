package runtime

import (
	"context"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/pref"
)

// churnDayReport is what one churn day leaves in the metric registry, plus
// the trace's mean benefit — comparable, so two days can be held equal.
type churnDayReport struct {
	ChurnOps, ChurnEpochs, FastEpochs, ResolveEpochs int
	FullReplans, IncrementalReplans                  int
	Profiles, DegradedEpochs                         int
	MeanBenefit                                      float64
}

// runChurnDay drives a 24-hour day (96 epochs) of diurnal stream arrivals
// and departures at twice the nominal churn rate over a heterogeneous-speed
// cluster, with everything the churn work composes switched on at once: PaMO
// as the scheduler, the incremental admit/evict fast path and the periodic
// full refresh. The strict speed-aware checker makes every installed
// decision — fast-path admissions included — a hard assertion.
func runChurnDay(t *testing.T) churnDayReport {
	t.Helper()
	const epochs, seed = 96, 77
	sys := testSys(4, 5)
	// Dyadic speed classes keep the speed-scaled Const2 arithmetic exact.
	for j, spd := range []float64{1, 1.5, 0.75, 2, 1.25} {
		sys.Servers[j].SpeedFactor = spd
	}
	names := make([]string, len(sys.Clips))
	for i, clip := range sys.Clips {
		names[i] = clip.Name
	}
	script := fault.GenerateChurn(fault.ChurnOptions{
		Epochs:       epochs,
		Initial:      names,
		Rate:         1.0, // the generator's nominal peak is 0.5
		PeriodEpochs: epochs,
		MaxStreams:   2 * sys.M(),
		Seed:         seed,
	})

	rec := obs.NewRecorder(nil)
	defer rec.Close()
	chk := check.New(true, rec)
	ctl := controller(sys, &PaMOScheduler{
		DM: &pref.Oracle{Pref: objective.UniformPreference()},
		Opt: pamo.Options{
			InitProfiles: 10, InitObs: 2, PrefPairs: 6, PrefPool: 8,
			Batch: 2, MCSamples: 8, CandPool: 6, MaxIter: 2,
			Seed:  seed,
			Check: chk,
			Obs:   rec,
		},
	}, 8)
	ctl.Opt.Incremental = true
	ctl.Opt.FullResolveEvery = 24 // every 6h
	ctl.Opt.Check = chk
	ctl.Ops = NewChurnFeed(script, seed)
	ctl.Obs = rec
	trace, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != epochs {
		t.Fatalf("reports = %d, want %d", len(trace.Reports), epochs)
	}

	reg := rec.Registry()
	cv := func(name string) int { return int(reg.Counter(name).Value()) }
	return churnDayReport{
		ChurnOps:           cv("runtime_churn_ops_total"),
		ChurnEpochs:        cv("runtime_churn_epochs_total"),
		FastEpochs:         cv("runtime_churn_fast_total"),
		ResolveEpochs:      cv("runtime_churn_resolve_total"),
		FullReplans:        cv("runtime_replans_total") - cv("runtime_replans_incremental_total"),
		IncrementalReplans: cv("runtime_replans_incremental_total"),
		Profiles:           cv("pamo_profiles_total"),
		DegradedEpochs:     cv("runtime_degraded_epochs_total"),
		MeanBenefit:        trace.MeanBenefit(),
	}
}

// TestChurnScenario gates the properties the churn work exists for: the
// strict checker stays silent, most churn epochs avoid a full resolve, the
// periodic refreshes re-run the optimizer, and the day is deterministic.
func TestChurnScenario(t *testing.T) {
	rep := runChurnDay(t)
	if rep.ChurnEpochs == 0 || rep.ChurnOps == 0 {
		t.Fatalf("schedule produced no churn: %+v", rep)
	}
	if rep.FastEpochs+rep.ResolveEpochs != rep.ChurnEpochs {
		t.Fatalf("fast %d + resolve %d != churn epochs %d",
			rep.FastEpochs, rep.ResolveEpochs, rep.ChurnEpochs)
	}
	// At least 70% of churn epochs absorbed by the admit/evict fast path.
	if hit := float64(rep.FastEpochs) / float64(rep.ChurnEpochs); hit < 0.7 {
		t.Errorf("admit hit rate %.3f below 0.7: %+v", hit, rep)
	}
	// The periodic configuration refreshes must re-run the optimizer.
	if rep.FullReplans < 2 {
		t.Errorf("full replans = %d, want >= 2 (refresh cadence broken)", rep.FullReplans)
	}
	if rep.IncrementalReplans == 0 {
		t.Errorf("no incremental replans: %+v", rep)
	}
	if rep.DegradedEpochs != 0 {
		t.Errorf("degraded epochs = %d, want 0", rep.DegradedEpochs)
	}
	if again := runChurnDay(t); again != rep {
		t.Errorf("churn scenario not deterministic:\n first %+v\nsecond %+v", rep, again)
	}
}
