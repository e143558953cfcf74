package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/videosim"
)

// These tests cover the control-plane seams the distributed runtime plugs
// into — HealthSource, OpSource, the abandoned-decide accounting, and the
// deterministic retry jitter — entirely in-process, with fakes standing in
// for the wire.

// TestAbandonedDecideNeverInstalls is the regression for the abandonment
// contract: a decide attempt that outlives its deadline is counted in
// runtime_decide_abandoned_total and its eventual result — even a
// perfectly valid decision — lands in a buffered channel nobody reads, so
// it can never install. The hung attempts here finish mid-run with a
// distinctive all-on-server-0 placement; every epoch must keep the
// original spread placement.
func TestAbandonedDecideNeverInstalls(t *testing.T) {
	sys := testSys(4, 3)
	var calls atomic.Int32
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	var hung sync.WaitGroup
	hung.Add(2)
	s := SchedulerFunc(func(ctx context.Context, sy *objective.System, epoch int) (eva.Decision, error) {
		switch calls.Add(1) {
		case 1:
			return zeroJitterScheduler().Decide(ctx, sy, epoch)
		case 2, 3:
			// Epoch 2's two attempts: hang past the deadline, then return a
			// valid but unmistakable decision (everything on server 0).
			defer hung.Done()
			<-release
			d, err := zeroJitterScheduler().Decide(ctx, sy, epoch)
			if err == nil {
				d.Assign = make([]int, len(d.Streams))
			}
			return d, err
		default:
			// Epoch 4's replan: let the abandoned attempts finish first so
			// their late writes land while the run is still going, then
			// hand back the ordinary plan. The wait is microseconds — far
			// inside this attempt's own deadline.
			releaseOnce.Do(func() { close(release) })
			hung.Wait()
			time.Sleep(2 * time.Millisecond)
			return zeroJitterScheduler().Decide(ctx, sy, epoch)
		}
	})
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	c := controller(sys, s, 2)
	c.Obs = rec
	c.Opt.DecideTimeout = 20 * time.Millisecond

	trace, err := c.Run(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != 6 {
		t.Fatalf("reports = %d", len(trace.Reports))
	}
	for _, r := range trace.Reports {
		// The late decision's fingerprint is every stream on server 0; no
		// installed epoch may ever show it.
		total := streamSum(r)
		if total == 0 || r.ServerStreams[0] == total {
			t.Fatalf("epoch %d: placement %v matches the abandoned decision", r.Epoch, r.ServerStreams)
		}
	}
	if r := trace.Reports[2]; !r.ReplanFailed || r.DecideAttempts != 2 {
		t.Fatalf("epoch 2: replan_failed=%v attempts=%d", r.ReplanFailed, r.DecideAttempts)
	}
	if r := trace.Reports[4]; !r.Replanned {
		t.Fatalf("epoch 4 should replan cleanly after release: %+v", r)
	}
	if got := calls.Load(); got < 4 {
		t.Fatalf("scheduler calls = %d, want >= 4", got)
	}
	reg := rec.Registry()
	if v := reg.Counter("runtime_decide_abandoned_total").Value(); v != 2 {
		t.Fatalf("abandoned = %d, want 2", v)
	}
	if v := reg.Counter("runtime_decide_timeouts_total").Value(); v != 2 {
		t.Fatalf("timeouts = %d, want 2", v)
	}
}

// TestBackoffWithJitter pins the deterministic retry jitter: factors stay
// inside [0.8, 1.2), identical (seed, epoch, try) keys reproduce exactly,
// and distinct seeds desynchronize.
func TestBackoffWithJitter(t *testing.T) {
	const base = 80 * time.Millisecond
	lo := time.Duration(float64(base) * 0.8)
	hi := time.Duration(float64(base) * 1.2)
	varied := false
	for seed := uint64(1); seed <= 4; seed++ {
		for epoch := 0; epoch < 8; epoch++ {
			for try := 1; try <= 3; try++ {
				d := backoffWithJitter(base, seed, epoch, try)
				if d < lo || d >= hi {
					t.Fatalf("seed %d epoch %d try %d: %v outside [%v, %v)", seed, epoch, try, d, lo, hi)
				}
				if d != backoffWithJitter(base, seed, epoch, try) {
					t.Fatalf("seed %d epoch %d try %d: not deterministic", seed, epoch, try)
				}
				if d != base {
					varied = true
				}
			}
		}
	}
	if !varied {
		t.Fatal("jitter never moved a delay off the base")
	}
	if backoffWithJitter(base, 1, 5, 1) == backoffWithJitter(base, 2, 5, 1) &&
		backoffWithJitter(base, 1, 6, 2) == backoffWithJitter(base, 2, 6, 2) {
		t.Fatal("distinct seeds did not desynchronize")
	}
}

// scriptedOps is an OpSource fake: it hands the controller a fixed batch
// of stream ops at one epoch and nothing elsewhere.
type scriptedOps struct {
	at    int
	ops   []StreamOp
	fired bool
}

func (s *scriptedOps) Drain(epoch int) []StreamOp {
	if s.fired || epoch != s.at {
		return nil
	}
	s.fired = true
	return s.ops
}

// TestOpSourceStreamChurn drives mid-run stream churn through the OpSource
// seam: at epoch 2 one camera registers and one deregisters, the epoch
// replans on the new stream set, and the controller's system reflects the
// swap for the rest of the run.
func TestOpSourceStreamChurn(t *testing.T) {
	sys := testSys(4, 3)
	gone := sys.Clips[0].Name
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	c := controller(sys, zeroJitterScheduler(), 100)
	c.Obs = rec
	c.Ops = &scriptedOps{at: 2, ops: []StreamOp{
		{Add: &videosim.Clip{Name: "cam-live", AccBase: 0.9, AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1}},
		{Remove: gone},
	}}
	trace, err := c.Run(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Reports[2].Replanned {
		t.Fatalf("epoch 2 did not replan on churn: %+v", trace.Reports[2])
	}
	for _, e := range []int{0, 1, 3, 4} {
		// ReplanEvery 100: without churn only epoch 0 plans.
		if e != 0 && trace.Reports[e].Replanned {
			t.Fatalf("epoch %d replanned without churn", e)
		}
	}
	if c.Sys.M() != 4 {
		t.Fatalf("M = %d after paired add/remove, want 4", c.Sys.M())
	}
	names := map[string]bool{}
	for _, clip := range c.Sys.Clips {
		names[clip.Name] = true
	}
	if !names["cam-live"] || names[gone] {
		t.Fatalf("stream set after churn: %v", names)
	}
	if v := rec.Registry().Counter("runtime_churn_ops_total").Value(); v != 2 {
		t.Fatalf("churn ops = %d, want 2", v)
	}
}

// scriptedHealth is a HealthSource fake that is not a fault.Injector: it
// marks server 1 down between two epochs, emitting the matching events.
// It proves the loop's liveness seam works for any inference source, not
// just the injected-fault oracle.
type scriptedHealth struct {
	servers      int
	downAt, upAt int
	down         bool
}

func (s *scriptedHealth) Advance(epoch int) []fault.Event {
	switch epoch {
	case s.downAt:
		s.down = true
		return []fault.Event{{Epoch: epoch, Action: fault.ServerDown, Target: 1}}
	case s.upAt:
		s.down = false
		return []fault.Event{{Epoch: epoch, Action: fault.ServerUp, Target: 1}}
	}
	return nil
}

func (s *scriptedHealth) State() fault.State {
	st := fault.State{Down: make([]bool, s.servers)}
	st.Down[1] = s.down
	return st
}

// TestHealthSourceDrivesReplans wires a scripted external health source
// into the controller: its events force replans at the down and up epochs,
// the dead server carries no streams while masked, and the fleet gauge
// tracks the source's state.
func TestHealthSourceDrivesReplans(t *testing.T) {
	sys := testSys(4, 3)
	rec := obs.NewRecorder(nil)
	defer rec.Close()
	c := controller(sys, zeroJitterScheduler(), 100)
	c.Obs = rec
	c.Health = &scriptedHealth{servers: 3, downAt: 2, upAt: 5}
	trace, err := c.Run(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trace.Reports {
		want := 3
		if r.Epoch >= 2 && r.Epoch < 5 {
			want = 2
		}
		if r.HealthyServers != want {
			t.Fatalf("epoch %d healthy = %d, want %d", r.Epoch, r.HealthyServers, want)
		}
		if r.Epoch >= 2 && r.Epoch < 5 && r.ServerStreams[1] != 0 {
			t.Fatalf("epoch %d placed %d streams on the down server", r.Epoch, r.ServerStreams[1])
		}
	}
	for _, e := range []int{2, 5} {
		if r := trace.Reports[e]; r.FaultEvents != 1 || !r.Replanned {
			t.Fatalf("epoch %d: events=%d replanned=%v, want forced replan", e, r.FaultEvents, r.Replanned)
		}
	}
	if v := rec.Registry().Counter("fault_events_total").Value(); v != 2 {
		t.Fatalf("fault events = %d, want 2", v)
	}
}
