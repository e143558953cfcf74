// Empirical invariant tests: the check package's verdicts must agree with
// what the discrete-event simulator actually observes. These live in an
// external test package because check, eva and sched import cluster.
package cluster_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestVerifiedPlanSimulatesZeroJitter closes the loop between the exact
// verifier and the simulator: a plan that VerifyAssignmentServers accepts, with the
// Theorem 1 offsets applied, must show (numerically) zero delay jitter in
// simulation, and ObserveJitter must agree that the zero-jitter claim holds.
func TestVerifiedPlanSimulatesZeroJitter(t *testing.T) {
	streams := []sched.Stream{
		{Video: 0, Period: sched.RatFromFPS(10), Proc: 0.03, Bits: 4e5},
		{Video: 1, Period: sched.RatFromFPS(5), Proc: 0.05, Bits: 8e5},
		{Video: 2, Period: sched.RatFromFPS(10), Proc: 0.02, Bits: 2e5},
	}
	servers := []cluster.Server{
		{Name: "s0", Uplink: 2e7},
		{Name: "s1", Uplink: 1e7},
	}
	plan, err := sched.Schedule(streams, servers)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewRecorder(nil)
	chk := check.New(true, rec)
	if err := chk.VerifyAssignmentServers(streams, plan.StreamServer, servers); err != nil {
		t.Fatalf("exact verifier rejected Algorithm 1's plan: %v", err)
	}

	sys := &objective.System{Servers: servers}
	jitter := cluster.MaxJitter(eva.Simulate(sys, eva.ZeroJitterDecision(nil, streams, plan, servers)))
	if jitter > cluster.JitterEps {
		t.Fatalf("verified plan simulated with jitter %g > eps %g", jitter, cluster.JitterEps)
	}
	if err := chk.ObserveJitter(jitter, true); err != nil {
		t.Fatalf("ObserveJitter rejected a genuinely zero-jitter run: %v", err)
	}
	snap := rec.Registry().Snapshot()
	if snap.Counters["check_violations_total"] != 0 {
		t.Fatalf("clean run recorded %d violations", snap.Counters["check_violations_total"])
	}
}

// TestObserveJitterFlagsContendingOffsets drives the simulator into the
// Figure 4 failure mode — non-harmonic periods with naive all-zero capture
// offsets — and requires both that the simulation really jitters and that
// ObserveJitter surfaces the broken zero-jitter claim: as a metric under a
// relaxed checker, as a hard error under a strict one.
func TestObserveJitterFlagsContendingOffsets(t *testing.T) {
	specs := []cluster.StreamSpec{
		{Name: "a", Period: 0.1, Proc: 0.05},
		{Name: "b", Period: 0.15, Proc: 0.05},
	}
	srv := cluster.Server{Name: "s0", Uplink: 0}
	res := cluster.SimulateServer(specs, srv, 30)
	if res.MaxJitter <= cluster.JitterEps {
		t.Fatalf("contending periods simulated with jitter %g — expected visible jitter", res.MaxJitter)
	}

	rec := obs.NewRecorder(nil)
	relaxed := check.New(false, rec)
	if err := relaxed.ObserveJitter(res.MaxJitter, true); err != nil {
		t.Fatalf("relaxed checker returned an error: %v", err)
	}
	snap := rec.Registry().Snapshot()
	if snap.Counters["check_violation_zero_jitter"] == 0 {
		t.Fatal("relaxed checker did not record the zero_jitter violation")
	}

	strict := check.New(true, rec)
	if err := strict.ObserveJitter(res.MaxJitter, true); err == nil {
		t.Fatal("strict checker accepted a violated zero-jitter claim")
	}
	// The same jitter under a truthful (non-zero-jitter) claim is fine.
	if err := strict.ObserveJitter(res.MaxJitter, false); err != nil {
		t.Fatalf("jitter with no zero-jitter claim must not error: %v", err)
	}
}
