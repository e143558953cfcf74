package runtime

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/videosim"
)

func testSys(m, n int) *objective.System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: videosim.StandardClips(m, 77), Servers: servers}
}

// zeroJitterScheduler plans a fixed mid-grid configuration with
// Algorithm 1 each time it is asked.
func zeroJitterScheduler() Scheduler {
	return &FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}
}

func controller(sys *objective.System, s Scheduler, replanEvery int) *Controller {
	return &Controller{
		Sys:   sys,
		Sched: s,
		Truth: objective.UniformPreference(),
		Norm:  objective.NewNormalizer(sys),
		Opt:   Options{ReplanEvery: replanEvery},
	}
}

func TestControllerRunsAndReports(t *testing.T) {
	sys := testSys(5, 3)
	c := controller(sys, zeroJitterScheduler(), 4)
	trace, err := c.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 10 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	replans := 0
	for i, r := range trace.Reports {
		if r.Epoch != i {
			t.Fatalf("epoch %d mislabeled as %d", i, r.Epoch)
		}
		if r.Outcome[objective.Latency] <= 0 || r.Outcome[objective.Accuracy] <= 0 {
			t.Fatalf("epoch %d outcomes empty: %+v", i, r.Outcome)
		}
		if r.Replanned {
			replans++
		}
	}
	if replans != 3 { // epochs 0, 4, 8
		t.Fatalf("replans = %d, want 3", replans)
	}
	if trace.MeanBenefit() >= 0 || trace.MeanBenefit() < -5 {
		t.Fatalf("mean benefit %v out of range", trace.MeanBenefit())
	}
}

func TestControllerZeroJitterAtReplanEpochs(t *testing.T) {
	sys := testSys(4, 3)
	c := controller(sys, zeroJitterScheduler(), 1) // replan every epoch
	trace, err := c.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Reports {
		// Replanning every epoch keeps offsets matched to the drifted
		// processing times up to drift within the epoch; jitter stays tiny.
		if r.MaxJitter > 0.02 {
			t.Fatalf("epoch %d jitter %v", r.Epoch, r.MaxJitter)
		}
	}
}

func TestContentDriftMovesOutcomes(t *testing.T) {
	sys := testSys(4, 3)
	c := controller(sys, zeroJitterScheduler(), 100) // plan once, never again
	trace, err := c.Run(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	first := trace.Reports[0].Outcome[objective.Compute]
	moved := false
	for _, r := range trace.Reports[1:] {
		if r.Outcome[objective.Compute] != first {
			moved = true
		}
	}
	if !moved {
		t.Fatal("content drift did not affect measured compute")
	}
}

func TestControllerContextCancellation(t *testing.T) {
	sys := testSys(4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	trace, err := controller(sys, zeroJitterScheduler(), 2).Run(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(trace.Reports) != 0 {
		t.Fatalf("cancelled run produced %d reports", len(trace.Reports))
	}
}

func TestControllerTimeoutMidRun(t *testing.T) {
	sys := testSys(4, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Slow scheduler: each decision sleeps, so the deadline hits mid-run.
	slow := SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
		time.Sleep(30 * time.Millisecond)
		return zeroJitterScheduler().Decide(ctx, s, epoch)
	})
	trace, err := controller(sys, slow, 1).Run(ctx, 1000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if len(trace.Reports) >= 1000 {
		t.Fatal("run did not stop at the deadline")
	}
}

func TestControllerKeepsDecisionOnReplanFailure(t *testing.T) {
	sys := testSys(4, 3)
	calls := 0
	flaky := SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
		calls++
		if calls > 1 {
			return eva.Decision{}, errors.New("synthetic failure")
		}
		return zeroJitterScheduler().Decide(ctx, s, epoch)
	})
	trace, err := controller(sys, flaky, 2).Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 6 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	// Only the first epoch shows a successful replan.
	for i, r := range trace.Reports {
		if (i == 0) != r.Replanned {
			t.Fatalf("epoch %d replanned = %v", i, r.Replanned)
		}
	}
}

func TestControllerFailsWithoutInitialDecision(t *testing.T) {
	sys := testSys(4, 3)
	broken := SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
		return eva.Decision{}, errors.New("nope")
	})
	_, err := controller(sys, broken, 2).Run(context.Background(), 3)
	if !errors.Is(err, ErrNoDecision) {
		t.Fatalf("err = %v", err)
	}
}

// TestClockOffReplansOnlyAtStart pins that nothing but the clock, a
// topology change or stream churn replans: with clock replans pushed past
// the run and no faults or churn, content drift alone never replaces the
// epoch-0 decision.
func TestClockOffReplansOnlyAtStart(t *testing.T) {
	sys := testSys(4, 3)
	c := controller(sys, zeroJitterScheduler(), 1000)
	trace, err := c.Run(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Reports {
		if (r.Epoch == 0) != r.Replanned {
			t.Fatalf("epoch %d replanned = %v", r.Epoch, r.Replanned)
		}
	}
}

func TestControllerWithJCABScheduler(t *testing.T) {
	sys := testSys(5, 3)
	jcab := SchedulerFunc(func(ctx context.Context, s *objective.System, epoch int) (eva.Decision, error) {
		return baselines.JCAB(ctx, s, baselines.JCABOptions{Seed: uint64(epoch)})
	})
	trace, err := controller(sys, jcab, 3).Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 6 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
}

func TestPaMOSchedulerAdapter(t *testing.T) {
	sys := testSys(4, 3)
	truth := objective.UniformPreference()
	planner := &PaMOScheduler{
		DM: &pref.Oracle{Pref: truth},
		Opt: pamo.Options{
			InitProfiles: 10, InitObs: 2, PrefPairs: 6, PrefPool: 8,
			Batch: 2, MCSamples: 8, CandPool: 6, MaxIter: 2, Seed: 3,
		},
	}
	c := controller(sys, planner, 3)
	trace, err := c.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 4 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	// PaMO's zero-jitter plans keep jitter tiny even under drift.
	for _, r := range trace.Reports {
		if r.MaxJitter > 0.05 {
			t.Fatalf("epoch %d jitter %v", r.Epoch, r.MaxJitter)
		}
	}
}

func TestParallelEvaluationDeterministic(t *testing.T) {
	sys := testSys(6, 4)
	run := func() *Trace {
		tr, err := controller(sys, zeroJitterScheduler(), 2).Run(context.Background(), 8)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	for i := range a.Reports {
		if a.Reports[i].Outcome != b.Reports[i].Outcome {
			t.Fatalf("nondeterministic outcome at epoch %d:\n%v\n%v", i, a.Reports[i].Outcome, b.Reports[i].Outcome)
		}
	}
}

// TestEvaluationWorkersBitExact runs one fleet-shaped day (32 videos on 8
// servers in 2 shards, a server crash and recovery mid-run) under
// GOMAXPROCS 1 and 4. The local evaluation pool runs min(Workers,
// GOMAXPROCS) workers, so the two runs split the servers over 1 and 4
// goroutines in different orders; each server's result depends only on its
// own arena, so the traces must be identical.
func TestEvaluationWorkersBitExact(t *testing.T) {
	run := func(procs int) *Trace {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		sys := testSys(32, 8)
		inj, err := fault.NewInjector(&fault.Scenario{Events: []fault.Event{
			{Epoch: 3, Action: fault.ServerDown, Target: 5},
			{Epoch: 6, Action: fault.ServerUp, Target: 5},
		}}, sys.N(), sys.M())
		if err != nil {
			t.Fatal(err)
		}
		c := controller(sys, zeroJitterScheduler(), 3)
		c.Opt.Shards = 2
		c.Faults = inj
		tr, err := c.Run(context.Background(), 9)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatal("traces differ between GOMAXPROCS 1 and 4")
	}
}
