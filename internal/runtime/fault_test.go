package runtime

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/videosim"
)

// uniformSys builds a system of m identical drift-free-factor clips (all
// factors 1, content phase 0) so feasibility arithmetic in the fault tests
// is exact: ProcTime(r) = 0.010 + 1.5e-8·r², scaled only by the ±5%
// content-difficulty wave shared by every clip.
func uniformSys(m, n int) *objective.System {
	clips := make([]*videosim.Clip, m)
	for i := range clips {
		clips[i] = &videosim.Clip{
			Name: fmt.Sprintf("cam%d", i), AccBase: 0.9,
			AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1,
		}
	}
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: clips, Servers: servers}
}

func faultController(sys *objective.System, s Scheduler, replanEvery int, sc *fault.Scenario, t *testing.T) *Controller {
	t.Helper()
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	if err != nil {
		t.Fatal(err)
	}
	c := controller(sys, s, replanEvery)
	c.Faults = inj
	return c
}

func streamSum(r EpochReport) int {
	s := 0
	for _, v := range r.ServerStreams {
		s += v
	}
	return s
}

// TestFaultKillOneOfFour is the acceptance scenario: killing one of four
// servers mid-run forces an immediate replan onto the three survivors with
// no shedding (capacity suffices), and recovery restores the full cluster —
// all within the epoch the event fires.
func TestFaultKillOneOfFour(t *testing.T) {
	sys := uniformSys(6, 4)
	sc := &fault.Scenario{Name: "kill-1-of-4", Events: []fault.Event{
		{Epoch: 3, Action: fault.ServerDown, Target: 1},
		{Epoch: 7, Action: fault.ServerUp, Target: 1},
	}}
	// ReplanEvery 100: every replan after epoch 0 is fault-forced.
	c := faultController(sys, &FixedScheduler{Cfg: videosim.Config{Resolution: 1500, FPS: 10}}, 100, sc, t)
	trace, err := c.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 10 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	for _, r := range trace.Reports {
		if r.Degraded || len(r.Shed) != 0 || len(r.Downgraded) != 0 {
			t.Fatalf("epoch %d degraded (%v/%v): 3 servers fit this workload", r.Epoch, r.Shed, r.Downgraded)
		}
		if r.ReplanFailed {
			t.Fatalf("epoch %d replan failed", r.Epoch)
		}
		if streamSum(r) != 6 {
			t.Fatalf("epoch %d placed %d of 6 streams (%v)", r.Epoch, streamSum(r), r.ServerStreams)
		}
		wantReplan := r.Epoch == 0 || r.Epoch == 3 || r.Epoch == 7
		if r.Replanned != wantReplan {
			t.Fatalf("epoch %d replanned = %v", r.Epoch, r.Replanned)
		}
		wantHealthy := 4
		if r.Epoch >= 3 && r.Epoch < 7 {
			wantHealthy = 3
		}
		if r.HealthyServers != wantHealthy {
			t.Fatalf("epoch %d healthy = %d, want %d", r.Epoch, r.HealthyServers, wantHealthy)
		}
		if r.Epoch >= 3 && r.Epoch < 7 && r.ServerStreams[1] != 0 {
			t.Fatalf("epoch %d: dead server 1 still has %d streams", r.Epoch, r.ServerStreams[1])
		}
	}
	if trace.Reports[3].FaultEvents != 1 || trace.Reports[7].FaultEvents != 1 {
		t.Fatalf("fault events: epoch3=%d epoch7=%d", trace.Reports[3].FaultEvents, trace.Reports[7].FaultEvents)
	}
}

// TestFaultDegradationDowngrades loses one of three servers under a
// workload that only fits three at full rate: the degradation policy must
// lower every video's frame rate (10 → 6 fps), shed nothing, keep
// reporting the downgrades across the outage (including a mid-outage
// replan epoch), and restore the full-rate plan the epoch the server
// returns.
func TestFaultDegradationDowngrades(t *testing.T) {
	sys := uniformSys(6, 3)
	sc := &fault.Scenario{Name: "degrade", Events: []fault.Event{
		{Epoch: 2, Action: fault.ServerDown, Target: 2},
		{Epoch: 6, Action: fault.ServerUp, Target: 2},
	}}
	// At (1500, 10) each stream needs 43.75ms per 100ms period: three
	// pair-groups fill three servers exactly, and no mix of 10/6 fps fits
	// two servers (1/6 is not a multiple of 1/10), so the policy must walk
	// all six videos down to 6 fps — and no further.
	c := faultController(sys, &FixedScheduler{Cfg: videosim.Config{Resolution: 1500, FPS: 10}}, 4, sc, t)
	trace, err := c.Run(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 9 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	for _, r := range trace.Reports {
		inOutage := r.Epoch >= 2 && r.Epoch < 6
		if r.Degraded != inOutage {
			t.Fatalf("epoch %d degraded = %v", r.Epoch, r.Degraded)
		}
		if len(r.Shed) != 0 {
			t.Fatalf("epoch %d shed %v: downgrading suffices here", r.Epoch, r.Shed)
		}
		if inOutage {
			if len(r.Downgraded) != 6 {
				t.Fatalf("epoch %d downgraded %v, want all 6", r.Epoch, r.Downgraded)
			}
			for i, v := range r.Downgraded {
				if v != i {
					t.Fatalf("epoch %d downgraded %v, want [0 1 2 3 4 5]", r.Epoch, r.Downgraded)
				}
			}
			if r.ServerStreams[2] != 0 {
				t.Fatalf("epoch %d: dead server 2 has %d streams", r.Epoch, r.ServerStreams[2])
			}
		} else if len(r.Downgraded) != 0 {
			t.Fatalf("epoch %d downgraded %v outside the outage", r.Epoch, r.Downgraded)
		}
		if streamSum(r) != 6 {
			t.Fatalf("epoch %d placed %d of 6 streams", r.Epoch, streamSum(r))
		}
	}
	// Recovery epoch replans the full-rate decision immediately.
	if r := trace.Reports[6]; !r.Replanned || r.Degraded || r.HealthyServers != 3 {
		t.Fatalf("recovery epoch: %+v", r)
	}
	// The degradation epoch itself replanned (onto the survivors).
	if r := trace.Reports[2]; !r.Replanned || r.HealthyServers != 2 || r.DecideAttempts != 1 {
		t.Fatalf("degradation epoch: %+v", r)
	}
}

// TestFaultAllServersDownShedsEverything drives the cluster to zero
// capacity: every video is shed, the epoch still completes, and recovery
// brings the full workload back.
func TestFaultAllServersDownShedsEverything(t *testing.T) {
	sys := uniformSys(3, 2)
	sc := &fault.Scenario{Name: "blackout", Events: []fault.Event{
		{Epoch: 1, Action: fault.ServerDown, Target: 0},
		{Epoch: 1, Action: fault.ServerDown, Target: 1},
		{Epoch: 3, Action: fault.ServerUp, Target: 0},
		{Epoch: 3, Action: fault.ServerUp, Target: 1},
	}}
	c := faultController(sys, &FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}, 100, sc, t)
	trace, err := c.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Reports {
		blackout := r.Epoch == 1 || r.Epoch == 2
		if blackout {
			if !r.Degraded || len(r.Shed) != 3 || streamSum(r) != 0 {
				t.Fatalf("blackout epoch %d: %+v", r.Epoch, r)
			}
		} else if r.Degraded || len(r.Shed) != 0 || streamSum(r) != 6 {
			// 3 videos at 10 fps with ~25ms processing split into 3 groups of
			// paired... (streams = videos here: one stream each, 3 total)
			if streamSum(r) != 3 {
				t.Fatalf("healthy epoch %d: %+v", r.Epoch, r)
			}
		}
	}
}

// TestBlockingSchedulerCannotStall proves the acceptance property that a
// scheduler stub which blocks forever cannot stall the controller: the
// per-attempt deadline fires, the bounded retry path runs, and the
// previous decision keeps the epochs flowing.
func TestBlockingSchedulerCannotStall(t *testing.T) {
	sys := testSys(4, 3)
	var calls atomic.Int32
	release := make(chan struct{})
	defer close(release) // unblock the abandoned goroutines at test end
	s := SchedulerFunc(func(ctx context.Context, sy *objective.System, epoch int) (eva.Decision, error) {
		if calls.Add(1) == 1 {
			return zeroJitterScheduler().Decide(ctx, sy, epoch)
		}
		<-release // ignores ctx entirely: the worst-behaved scheduler
		return eva.Decision{}, errors.New("released")
	})
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	c := controller(sys, s, 2)
	c.Obs = rec
	c.Opt.DecideTimeout = 20 * time.Millisecond

	var trace *Trace
	var err error
	done := make(chan struct{})
	go func() {
		trace, err = c.Run(context.Background(), 4)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("controller stalled behind a hung scheduler")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 4 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	if r := trace.Reports[0]; !r.Replanned || r.ReplanFailed || r.DecideAttempts != 1 {
		t.Fatalf("epoch 0: %+v", r)
	}
	// Epoch 2's replan hangs: both attempts time out, the old decision runs.
	if r := trace.Reports[2]; !r.ReplanFailed || r.Replanned || r.DecideAttempts != 2 {
		t.Fatalf("epoch 2: replan_failed=%v replanned=%v attempts=%d", r.ReplanFailed, r.Replanned, r.DecideAttempts)
	}
	for _, r := range trace.Reports {
		if r.Outcome[objective.Accuracy] <= 0 {
			t.Fatalf("epoch %d not evaluated: %+v", r.Epoch, r.Outcome)
		}
	}
	reg := rec.Registry()
	if v := reg.Counter("runtime_decide_timeouts_total").Value(); v != 2 {
		t.Fatalf("decide timeouts = %d, want 2", v)
	}
	if v := reg.Counter("runtime_decide_retries_total").Value(); v != 1 {
		t.Fatalf("decide retries = %d, want 1", v)
	}
	if v := reg.Counter("runtime_replans_failed_total").Value(); v != 1 {
		t.Fatalf("failed replans = %d, want 1", v)
	}
}

// TestFaultTraceDeterministic is the failover-determinism guarantee: the
// same generated scenario and seed produce a byte-identical trace, with
// telemetry enabled and disabled (under -race this also proves the
// parallel evaluators and recorder do not perturb results).
func TestFaultTraceDeterministic(t *testing.T) {
	sc := fault.Generate(fault.GenOptions{
		Epochs: 10, Servers: 4, Cameras: 6, Seed: 11,
		CrashProb: 0.2, StallProb: 0.1, DegradeProb: 0.2,
	})
	hasServerFault := false
	for _, e := range sc.Events {
		if e.Action == fault.ServerDown {
			hasServerFault = true
		}
	}
	if !hasServerFault {
		t.Fatal("generated scenario has no server crash; pick a different seed")
	}
	run := func(rec *obs.Recorder) []byte {
		sys := testSys(6, 4)
		c := faultController(sys, zeroJitterScheduler(), 3, sc, t)
		c.Obs = rec
		tr, err := c.Run(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	if withTelemetry := run(rec); !bytes.Equal(plain, withTelemetry) {
		t.Fatal("telemetry changed the trace bytes")
	}
	if again := run(nil); !bytes.Equal(plain, again) {
		t.Fatal("same scenario and seed produced different traces")
	}
}

// TestFaultLinkDegradeMovesLatency checks the bandwidth fault path: scaling
// a server's uplink down must raise measured latency while leaving the
// topology (and hence the plan) alone.
func TestFaultLinkDegradeMovesLatency(t *testing.T) {
	sys := uniformSys(4, 2)
	sc := &fault.Scenario{Name: "slow-link", Events: []fault.Event{
		{Epoch: 2, Action: fault.LinkDegrade, Target: 0, Factor: 0.05},
		{Epoch: 2, Action: fault.LinkDegrade, Target: 1, Factor: 0.05},
		{Epoch: 4, Action: fault.LinkRestore, Target: 0},
		{Epoch: 4, Action: fault.LinkRestore, Target: 1},
	}}
	c := faultController(sys, &FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}, 100, sc, t)
	trace, err := c.Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	healthyLat := trace.Reports[0].Outcome[objective.Latency]
	slowLat := trace.Reports[2].Outcome[objective.Latency]
	if slowLat <= healthyLat {
		t.Fatalf("degraded links did not raise latency: %v -> %v", healthyLat, slowLat)
	}
	if r := trace.Reports[2]; r.Degraded || streamSum(r) != 4 {
		t.Fatalf("link degradation should not shed streams: %+v", r)
	}
}

// TestFaultCameraStall checks stalled cameras: their streams stop counting
// toward outcomes and server load, and resume afterwards.
func TestFaultCameraStall(t *testing.T) {
	sys := uniformSys(4, 2)
	sc := &fault.Scenario{Name: "stall", Events: []fault.Event{
		{Epoch: 1, Action: fault.CameraStall, Target: 0},
		{Epoch: 3, Action: fault.CameraResume, Target: 0},
	}}
	c := faultController(sys, &FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}}, 100, sc, t)
	trace, err := c.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Reports {
		stalled := r.Epoch == 1 || r.Epoch == 2
		want := 4
		if stalled {
			want = 3
			if len(r.Stalled) != 1 || r.Stalled[0] != 0 {
				t.Fatalf("epoch %d stalled = %v", r.Epoch, r.Stalled)
			}
		} else if len(r.Stalled) != 0 {
			t.Fatalf("epoch %d stalled = %v", r.Epoch, r.Stalled)
		}
		if streamSum(r) != want {
			t.Fatalf("epoch %d live streams = %d, want %d", r.Epoch, streamSum(r), want)
		}
	}
	// A stalled camera ships no bandwidth: epoch 1 must use less than epoch 0.
	if trace.Reports[1].Outcome[objective.Network] >= trace.Reports[0].Outcome[objective.Network] {
		t.Fatal("stalled camera still consumed bandwidth")
	}
}
