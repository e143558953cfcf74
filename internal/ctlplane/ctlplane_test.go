package ctlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// testSystem builds the small deterministic cluster the golden fault run
// uses: uniform clips, heterogeneous uplinks.
func testSystem(videos, servers int) *objective.System {
	clips := make([]*videosim.Clip, videos)
	for i := range clips {
		clips[i] = &videosim.Clip{
			Name: fmt.Sprintf("cam%d", i), AccBase: 0.9,
			AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1,
		}
	}
	srvs := make([]cluster.Server, servers)
	for j := range srvs {
		srvs[j] = cluster.Server{Uplink: float64(10+5*(j%8)) * 1e6}
	}
	return &objective.System{Clips: clips, Servers: srvs}
}

func newRuntime(sys *objective.System, rec *obs.Recorder, strict bool) *runtime.Controller {
	var chk *check.Checker
	if strict {
		chk = check.New(true, rec)
	}
	return &runtime.Controller{
		Sys:   sys,
		Sched: &runtime.FixedScheduler{Cfg: videosim.Config{Resolution: 1000, FPS: 10}},
		Truth: objective.UniformPreference(),
		Norm:  objective.NewNormalizer(sys),
		Opt:   runtime.Options{ReplanEvery: 100, Check: chk},
		Obs:   rec,
	}
}

// TestWireMatchesInProcess is the headline equivalence property: the
// wire-driven loop (controller + hollow agents, no faults) must reproduce
// the in-process run byte-exactly — same decisions, same DES outcomes,
// same benefits, down to the last bit of every float. Go's encoding/json
// round-trips float64 exactly, the agents fold frames in the same order
// the in-process evaluator does, and this test pins both facts.
func TestWireMatchesInProcess(t *testing.T) {
	const videos, servers, epochs = 6, 3, 8

	inproc := newRuntime(testSystem(videos, servers), obs.NewRecorder(nil), true)
	want, err := inproc.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	rt := newRuntime(testSystem(videos, servers), obs.NewRecorder(nil), true)
	ctl := New(rt, Options{MissedBeats: 2})
	fleet := NewHollowFleet(ctl, servers)
	if err := fleet.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	got, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	wj, _ := json.Marshal(want.Reports)
	gj, _ := json.Marshal(got.Reports)
	if string(wj) != string(gj) {
		t.Fatalf("wire trace diverged from in-process:\n got %s\nwant %s", gj, wj)
	}
	reg := ctl.rec.Registry()
	if v := reg.Counter("ctlplane_results_total").Value(); v != uint64(servers*epochs) {
		t.Fatalf("results_total = %d, want %d", v, servers*epochs)
	}
	if v := reg.Counter("ctlplane_marks_down_total").Value(); v != 0 {
		t.Fatalf("no-fault run marked %d servers down", v)
	}
}

// TestOracleHealthMatchesInjector pins the other equivalence: with
// OracleHealth the wire loop under a fault scenario must match the
// in-process injector-driven run byte-exactly (the root-package golden
// test checks the same configuration against testdata/golden/).
func TestOracleHealthMatchesInjector(t *testing.T) {
	const videos, servers, epochs = 6, 3, 10
	sc := &fault.Scenario{Name: "golden-crash", Events: []fault.Event{
		{Epoch: 2, Action: fault.ServerDown, Target: 0},
		{Epoch: 4, Action: fault.ServerDown, Target: 2},
		{Epoch: 7, Action: fault.ServerUp, Target: 0},
	}}

	sysA := testSystem(videos, servers)
	injA, err := fault.NewInjector(sc, servers, videos)
	if err != nil {
		t.Fatal(err)
	}
	inproc := newRuntime(sysA, obs.NewRecorder(nil), true)
	inproc.Faults = injA
	want, err := inproc.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	injB, err := fault.NewInjector(sc, servers, videos)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(testSystem(videos, servers), obs.NewRecorder(nil), true)
	ctl := New(rt, Options{Env: injB, OracleHealth: true})
	fleet := NewHollowFleet(ctl, servers)
	if err := fleet.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	got, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}

	wj, _ := json.Marshal(want.Reports)
	gj, _ := json.Marshal(got.Reports)
	if string(wj) != string(gj) {
		t.Fatalf("oracle wire trace diverged:\n got %s\nwant %s", gj, wj)
	}
}

// TestLivenessInference kills an agent mid-run with no injector in sight:
// the controller must notice the silence through missed beats, mark the
// server down (forcing a masked replan), and mark it back up after the
// restart — all under a strict checker.
func TestLivenessInference(t *testing.T) {
	const videos, servers, epochs = 6, 3, 10
	rt := newRuntime(testSystem(videos, servers), obs.NewRecorder(nil), true)
	var fleet *HollowFleet
	ctl := New(rt, Options{
		MissedBeats: 1,
		EvalTimeout: 2 * time.Second,
		OnEpoch: func(epoch int) {
			switch epoch {
			case 2:
				fleet.Kill(1)
			case 6:
				if err := fleet.Restart(1); err != nil {
					t.Errorf("restart: %v", err)
				}
			}
		},
	})
	fleet = NewHollowFleet(ctl, servers)
	if err := fleet.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	trace, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Reports) != epochs {
		t.Fatalf("got %d reports", len(trace.Reports))
	}

	reg := ctl.rec.Registry()
	if v := reg.Counter("ctlplane_marks_down_total").Value(); v != 1 {
		t.Fatalf("marks_down_total = %d, want 1", v)
	}
	if v := reg.Counter("ctlplane_marks_up_total").Value(); v != 1 {
		t.Fatalf("marks_up_total = %d, want 1", v)
	}
	// Kill at epoch 2 with MissedBeats=1: the server's last beat lands in
	// epoch 1, epoch 2 ends mid-kill and epoch 3 elapses fully silent —
	// one full missed beat, still within the allowance — and the liveness
	// check at the START of epoch 4 sees the allowance exceeded and marks
	// it down. The restart at epoch 6 registers synchronously, so epoch 6
	// already runs on 3 servers.
	byEpoch := map[int]runtime.EpochReport{}
	for _, r := range trace.Reports {
		byEpoch[r.Epoch] = r
	}
	if got := byEpoch[4].HealthyServers; got != servers-1 {
		t.Fatalf("epoch 4 healthy = %d, want %d", got, servers-1)
	}
	if !byEpoch[4].Replanned || byEpoch[4].FaultEvents == 0 {
		t.Fatalf("detection epoch did not force a replan: %+v", byEpoch[4])
	}
	if got := byEpoch[6].HealthyServers; got != servers {
		t.Fatalf("epoch 6 healthy = %d, want %d", got, servers)
	}
	if byEpoch[6].FaultEvents == 0 {
		t.Fatalf("recovery epoch carries no fault event: %+v", byEpoch[6])
	}
	if v := reg.Counter("ctlplane_eval_timeouts_total").Value(); v == 0 {
		t.Fatal("killed agent's dispatch never timed out")
	}
	// Strict-audit cleanliness is the run completing: every installed
	// decision passed the exact verifier (a strict violation aborts Run).
	// Outage epochs do record relaxed model-error violations (drifted
	// const1, fault-broken zero-jitter claims) — those are metric-only by
	// design, identically to the in-process injector-driven runs.
	if v := reg.Counter("check_checks_decision").Value(); v == 0 {
		t.Fatal("strict decision audits never ran")
	}
}

// TestIncarnationFencing pins the fencing rules at the HTTP layer: a
// re-register bumps the incarnation and every message carrying the old one
// is rejected with 409, idempotently.
func TestIncarnationFencing(t *testing.T) {
	rt := newRuntime(testSystem(2, 2), obs.NewRecorder(nil), false)
	ctl := New(rt, Options{})
	cl := LoopbackClient(ctl, 1)
	ctx := context.Background()

	var r1, r2 RegisterResponse
	if err := cl.call(ctx, "/v1/register", RegisterRequest{Server: 0}, &r1, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.call(ctx, "/v1/register", RegisterRequest{Server: 0}, &r2, 0); err != nil {
		t.Fatal(err)
	}
	if r2.Incarnation <= r1.Incarnation {
		t.Fatalf("incarnation did not advance: %d then %d", r1.Incarnation, r2.Incarnation)
	}

	// The predecessor is fenced out of every endpoint, and a poll carrying
	// an outcome is refused whole: the outcome is never applied.
	for _, stale := range []struct {
		path string
		req  any
	}{
		{"/v1/poll", PollRequest{Server: 0, Incarnation: r1.Incarnation, WaitMS: 1}},
		{"/v1/poll", PollRequest{Server: 0, Incarnation: r1.Incarnation, WaitMS: 1, Done: &Outcome{Epoch: 0, Version: 1}}},
		{"/v1/heartbeat", HeartbeatRequest{Server: 0, Incarnation: r1.Incarnation}},
	} {
		err := cl.call(ctx, stale.path, stale.req, nil, 0)
		if !strings.Contains(fmt.Sprint(err), "fenced") {
			t.Fatalf("%s %+v with stale incarnation: err = %v, want fenced", stale.path, stale.req, err)
		}
	}
	reg := ctl.rec.Registry()
	if v := reg.Counter("ctlplane_stale_incarnations_total").Value(); v != 3 {
		t.Fatalf("stale_incarnations_total = %d, want 3", v)
	}
	if v := reg.Counter("ctlplane_stale_results_total").Value() + reg.Counter("ctlplane_results_total").Value(); v != 0 {
		t.Fatalf("a fenced poll's outcome reached the result fencing (%d outcomes counted)", v)
	}
	// The successor is not.
	if err := cl.call(ctx, "/v1/heartbeat", HeartbeatRequest{Server: 0, Incarnation: r2.Incarnation}, &HeartbeatResponse{}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestResultVersionFencing pins duplicate/stale outcome handling on the
// poll that carries it: only the outcome matching the pending item's
// (epoch, version) is applied; a replayed or mismatched one is counted and
// dropped, and the poll itself goes on — it is not refused.
func TestResultVersionFencing(t *testing.T) {
	rt := newRuntime(testSystem(2, 2), obs.NewRecorder(nil), false)
	ctl := New(rt, Options{EvalTimeout: 5 * time.Second})
	cl := LoopbackClient(ctl, 1)
	ctx := context.Background()

	var rr RegisterResponse
	if err := cl.call(ctx, "/v1/register", RegisterRequest{Server: 1}, &rr, 0); err != nil {
		t.Fatal(err)
	}
	type evalOut struct {
		res runtime.ServerEvalResult
		err error
	}
	done := make(chan evalOut, 1)
	go func() {
		res, err := ctl.EvaluateServer(ctx, 0, 1,
			[]cluster.StreamSpec{{Period: 0.1, Proc: 0.01, Bits: 1e5}},
			cluster.Server{Uplink: 1e7}, 5)
		done <- evalOut{res, err}
	}()

	poll := func(o *Outcome) PollResponse {
		t.Helper()
		var pr PollResponse
		req := PollRequest{Server: 1, Incarnation: rr.Incarnation, WaitMS: 20, Done: o}
		if err := cl.call(ctx, "/v1/poll", req, &pr, time.Second); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	pr := poll(nil)
	for pr.NoWork {
		pr = poll(nil)
	}
	if pr.Version == 0 || len(pr.Specs) != 1 {
		t.Fatalf("poll returned %+v", pr)
	}

	// Wrong version first: dropped, and the poll hands the untouched
	// pending item back.
	bad := &Outcome{Epoch: pr.Epoch, Version: pr.Version + 7, Result: runtime.ServerEvalResult{Frames: 1}}
	if again := poll(bad); again.NoWork || again.Version != pr.Version {
		t.Fatalf("after a mismatched outcome the poll returned %+v, want version %d again", again, pr.Version)
	}

	good := &Outcome{Epoch: pr.Epoch, Version: pr.Version,
		Result: runtime.ServerEvalResult{LatSum: 1.5, Frames: 3, MaxJitter: 0.25}}
	if after := poll(good); !after.NoWork {
		t.Fatalf("after the matching outcome the poll returned %+v, want no work", after)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, good.Result) {
		t.Fatalf("evaluator got %+v, want %+v", out.res, good.Result)
	}

	// Replay after acceptance: dropped again (an idempotent duplicate).
	if after := poll(good); !after.NoWork {
		t.Fatalf("replayed outcome's poll returned %+v, want no work", after)
	}
	reg := ctl.rec.Registry()
	if v := reg.Counter("ctlplane_stale_results_total").Value(); v != 2 {
		t.Fatalf("stale_results_total = %d, want 2", v)
	}
	if v := reg.Counter("ctlplane_results_total").Value(); v != 1 {
		t.Fatalf("results_total = %d, want 1", v)
	}
}

// TestRefusedWorkFailsFast pins the fate of a work item the agent refuses:
// the refusal rides the agent's next poll, the dispatch fails at once
// instead of at the eval timeout, and the pending item is cleared so the
// agent's polls park instead of being handed the item over and over.
func TestRefusedWorkFailsFast(t *testing.T) {
	rt := newRuntime(testSystem(2, 2), obs.NewRecorder(nil), false)
	ctl := New(rt, Options{EvalTimeout: 300 * time.Millisecond})
	agentRec := obs.NewRecorder(nil)
	registered := make(chan struct{})
	agent := &Agent{
		Server: 0, Client: LoopbackClient(ctl, 1), Obs: agentRec,
		OnRegistered: func(uint64) { close(registered) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() { exited <- agent.Run(ctx) }()
	defer func() {
		cancel()
		<-exited
	}()
	<-registered

	start := time.Now()
	_, err := ctl.EvaluateServer(context.Background(), 0, 0,
		[]cluster.StreamSpec{{Period: 0, Proc: 0.01}}, cluster.Server{Uplink: 1e7}, 5)
	elapsed := time.Since(start)
	reg := ctl.rec.Registry()
	polls := reg.Counter("ctlplane_polls_total").Value()
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("refused dispatch returned err = %v", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Fatalf("refused dispatch took %v, want well under the 300 ms eval timeout", elapsed)
	}
	if polls > 3 {
		t.Fatalf("%d polls before the refusal landed, want at most 3", polls)
	}
	for name, want := range map[string]uint64{
		"ctlplane_rejected_work_total": 1,
		"ctlplane_eval_timeouts_total": 0,
		"ctlplane_results_total":       0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	ctl.mu.Lock()
	pending := ctl.agents[0].pending
	ctl.mu.Unlock()
	if pending != nil {
		t.Fatal("refused work item left pending")
	}
	if v := agentRec.Registry().Counter("ctlplane_agent_stale_work_total").Value(); v != 0 {
		t.Fatalf("agent was handed the refused item again %d times", v)
	}
}

// TestEvalTimeoutClearsPending pins the controller side of abandonment: a
// dispatch nobody serves times out, scores the server as absent, and
// clears the pending item so a late poll cannot resurrect it.
func TestEvalTimeoutClearsPending(t *testing.T) {
	rt := newRuntime(testSystem(2, 2), obs.NewRecorder(nil), false)
	ctl := New(rt, Options{EvalTimeout: 30 * time.Millisecond})
	_, err := ctl.EvaluateServer(context.Background(), 0, 0, nil, cluster.Server{Uplink: 1e7}, 5)
	if err == nil {
		t.Fatal("unserved dispatch did not time out")
	}
	ctl.mu.Lock()
	pending := ctl.agents[0].pending
	ctl.mu.Unlock()
	if pending != nil {
		t.Fatal("timed-out work item left pending")
	}
	if v := ctl.rec.Registry().Counter("ctlplane_eval_timeouts_total").Value(); v != 1 {
		t.Fatalf("eval_timeouts_total = %d", v)
	}
}

// TestStreamChurnOverWire registers a new video and deregisters an old one
// over HTTP mid-run; the loop must apply both at the epoch boundary,
// rebuild the normalizer, and force a full replan that covers the new set.
func TestStreamChurnOverWire(t *testing.T) {
	const videos, servers, epochs = 4, 2, 6
	rt := newRuntime(testSystem(videos, servers), obs.NewRecorder(nil), true)
	ctl := New(rt, Options{})
	cl := LoopbackClient(ctl, 9)
	fleet := NewHollowFleet(ctl, servers)
	if err := fleet.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// Ops queued before Run would drain at epoch 0; queue mid-run from the
	// OnEpoch hook instead so the churn hits a known boundary.
	var churned bool
	ctl.OnEpoch(func(epoch int) {
		if epoch == 3 && !churned {
			churned = true
			var resp StreamOpResponse
			if err := cl.call(context.Background(), "/v1/streams/register",
				StreamRegisterRequest{Clip: ClipSpec{Name: "cam-new", AccBase: 0.9, AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1}}, &resp, 0); err != nil {
				t.Errorf("stream register: %v", err)
			}
			if err := cl.call(context.Background(), "/v1/streams/deregister",
				StreamDeregisterRequest{Name: "cam0"}, &resp, 0); err != nil {
				t.Errorf("stream deregister: %v", err)
			}
		}
	})
	trace, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	// Ops queued at epoch 3's hook are drained at epoch 4's boundary.
	byEpoch := map[int]runtime.EpochReport{}
	for _, r := range trace.Reports {
		byEpoch[r.Epoch] = r
	}
	if !byEpoch[4].Replanned {
		t.Fatalf("churn epoch not replanned: %+v", byEpoch[4])
	}
	if rt.Sys.M() != videos {
		t.Fatalf("system has %d videos after +1/-1 churn, want %d", rt.Sys.M(), videos)
	}
	names := make([]string, 0, rt.Sys.M())
	for _, c := range rt.Sys.Clips {
		names = append(names, c.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "cam-new") || strings.Contains(strings.Join(names, ","), "cam0,") {
		t.Fatalf("clip set after churn: %v", names)
	}
	if v := ctl.rec.Registry().Counter("runtime_churn_ops_total").Value(); v != 2 {
		t.Fatalf("churn_ops_total = %d, want 2", v)
	}
}

// TestBackoffDeterministicJitter pins the client backoff: doubling capped
// at Max, jitter within ±20%, bit-identical across runs with the same
// seed, different across seeds.
func TestBackoffDeterministicJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 42}
	plain := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, NoJitter: true}
	for attempt := 0; attempt < 8; attempt++ {
		base := plain.Delay(attempt)
		got := b.Delay(attempt)
		if got != b.Delay(attempt) {
			t.Fatalf("attempt %d: jittered delay not deterministic", attempt)
		}
		lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
		if got < lo || got >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, got, lo, hi)
		}
	}
	if plain.Delay(10) != 2*time.Second {
		t.Fatalf("cap not applied: %v", plain.Delay(10))
	}
	other := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 43}
	same := 0
	for attempt := 0; attempt < 8; attempt++ {
		if b.Delay(attempt) == other.Delay(attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// TestClientRetriesTransportErrors pins the wire client's retry loop: a
// transport that fails twice then succeeds is retried under backoff; a
// fenced response is surfaced immediately, never retried.
func TestClientRetriesTransportErrors(t *testing.T) {
	fails := 2
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if r.URL.Path == "/v1/fenced" {
			http.Error(w, "stale incarnation", http.StatusConflict)
			return
		}
		if fails > 0 {
			fails--
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		writeJSON(w, HeartbeatResponse{Epoch: 7})
	})
	cl := &Client{
		BaseURL: "http://test.local",
		HTTP:    &http.Client{Transport: &loopbackTransport{h: h}},
		Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1},
	}
	var hb HeartbeatResponse
	if err := cl.call(context.Background(), "/v1/x", struct{}{}, &hb, 0); err != nil {
		t.Fatal(err)
	}
	if hb.Epoch != 7 || calls != 3 {
		t.Fatalf("epoch=%d calls=%d", hb.Epoch, calls)
	}
	calls = 0
	err := cl.call(context.Background(), "/v1/fenced", struct{}{}, nil, 0)
	if !strings.Contains(fmt.Sprint(err), "fenced") || calls != 1 {
		t.Fatalf("fenced call: err=%v calls=%d (must not retry)", err, calls)
	}
}

// TestClientDoesNotRetryClientErrors pins that a 4xx other than 409 is the
// request's fault: the client sends it once and returns an error naming
// the status, instead of resending it under backoff.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "stream name required", http.StatusBadRequest)
	})
	cl := &Client{
		BaseURL: "http://test.local",
		HTTP:    &http.Client{Transport: &loopbackTransport{h: h}},
		Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Seed: 1},
	}
	err := cl.call(context.Background(), "/v1/streams", struct{}{}, nil, 0)
	if calls != 1 {
		t.Fatalf("400 sent %d times, want once", calls)
	}
	if msg := fmt.Sprint(err); !strings.Contains(msg, "HTTP 400") || !strings.Contains(msg, "stream name required") {
		t.Fatalf("err = %v, want it to name HTTP 400 and the server's message", err)
	}
}

// TestWireChurnIncrementalFastPath drives scripted stream churn through
// the wire API with the incremental fast path on: a ChurnDriver posts the
// script's register/deregister ops from the epoch hook, the hollow fleet
// evaluates every plan, and the churn epochs must ride the exact
// admit/evict path — incremental replans, no full resolve after epoch 0 —
// with the strict checker auditing every installed decision.
func TestWireChurnIncrementalFastPath(t *testing.T) {
	const videos, servers, epochs = 4, 2, 8
	rec := obs.NewRecorder(nil)
	rt := newRuntime(testSystem(videos, servers), rec, true)
	rt.Opt.Incremental = true
	ctl := New(rt, Options{})
	cl := LoopbackClient(ctl, 9)
	fleet := NewHollowFleet(ctl, servers)
	if err := fleet.StartAll(); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	script := &fault.ChurnScript{Name: "wire-churn", Ops: []fault.ChurnOp{
		{Epoch: 3, Add: true, Name: "cam-w1"},
		{Epoch: 5, Add: false, Name: "cam0"},
	}}
	driver := NewChurnDriver(cl, script, 42)
	ctl.OnEpoch(driver.OnEpoch)

	trace, err := ctl.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Err(); err != nil {
		t.Fatal(err)
	}
	byEpoch := map[int]runtime.EpochReport{}
	for _, r := range trace.Reports {
		byEpoch[r.Epoch] = r
	}
	for _, e := range []int{3, 5} {
		if !byEpoch[e].Replanned {
			t.Fatalf("churn epoch %d not replanned: %+v", e, byEpoch[e])
		}
	}
	if rt.Sys.M() != videos {
		t.Fatalf("M = %d after +1/-1 wire churn, want %d", rt.Sys.M(), videos)
	}
	reg := ctl.rec.Registry()
	if v := reg.Counter("ctlplane_stream_ops_total").Value(); v != 2 {
		t.Fatalf("stream_ops_total = %d, want 2", v)
	}
	if v := reg.Counter("runtime_churn_fast_total").Value(); v != 2 {
		t.Fatalf("churn_fast_total = %d, want 2 (arrival admitted, departure evicted)", v)
	}
	if v := reg.Counter("runtime_churn_resolve_total").Value(); v != 0 {
		t.Fatalf("churn_resolve_total = %d, want 0", v)
	}
	if v := reg.Counter("runtime_replans_incremental_total").Value(); v == 0 {
		t.Fatal("no incremental replans on the wire churn path")
	}
}

// TestAgentRejectsMalformedWork feeds an agent, through a scripted
// controller, work items the simulator would panic on — horizon 0, a
// period of 0, a period of −1 — then a re-dispatch of the last one, an
// item of 5,000,000 frames (period 1 µs over 5 s) and a valid item. The
// agent must survive, count each malformed item once as bad work without
// simulating it (the re-dispatch as stale work), carry a refusal for each
// on its next poll (the re-dispatch re-acked from cache), and evaluate the
// valid item as a fresh arena would.
func TestAgentRejectsMalformedWork(t *testing.T) {
	good := []cluster.StreamSpec{{Period: 0.1, Proc: 0.01, Bits: 1e5}, {Period: 0.2, Proc: 0.02, Bits: 2e5, Offset: 0.03}}
	srv := cluster.Server{Uplink: 1e7}
	items := []PollResponse{
		{Version: 1, Specs: good, Server: srv, Horizon: 0},
		{Version: 2, Specs: []cluster.StreamSpec{good[0], {Proc: 0.01}}, Server: srv, Horizon: 5},
		{Version: 3, Specs: []cluster.StreamSpec{{Period: -1, Proc: 0.01}}, Server: srv, Horizon: 5},
		{Version: 3, Specs: []cluster.StreamSpec{{Period: -1, Proc: 0.01}}, Server: srv, Horizon: 5},
		{Version: 4, Specs: []cluster.StreamSpec{{Period: 1e-6, Proc: 1e-7, Bits: 1}}, Server: srv, Horizon: 5},
		{Version: 5, Specs: good, Server: srv, Horizon: 5},
		{Shutdown: true},
	}
	var carried []Outcome
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/register":
			writeJSON(w, RegisterResponse{Incarnation: 1})
		case "/v1/poll":
			var req PollRequest
			if !readJSON(w, r, &req) {
				return
			}
			if req.Done != nil {
				carried = append(carried, *req.Done)
			}
			writeJSON(w, items[0])
			if len(items) > 1 {
				items = items[1:]
			}
		default:
			http.NotFound(w, r)
		}
	})
	rec := obs.NewRecorder(nil)
	agent := &Agent{
		Server: 0,
		Client: &Client{BaseURL: "http://test.local", HTTP: &http.Client{Transport: &loopbackTransport{h: h}}},
		Obs:    rec,
	}
	if err := agent.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	for name, want := range map[string]uint64{
		"ctlplane_agent_bad_work_total":   4,
		"ctlplane_agent_stale_work_total": 1,
		"ctlplane_agent_evals_total":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	refused := []uint64{1, 2, 3, 3, 4}
	if len(carried) != len(refused)+1 {
		t.Fatalf("polls carried %d outcomes %+v, want %d", len(carried), carried, len(refused)+1)
	}
	for i, v := range refused {
		if o := carried[i]; o.Version != v || o.Reject == "" {
			t.Errorf("outcome %d = %+v, want a refusal of version %d", i, o, v)
		}
	}
	sim := cluster.NewArena().SimulateServer(good, srv, 5)
	want := Outcome{Version: 5, Result: runtime.ServerEvalResult{LatSum: sim.LatSum, Frames: sim.FrameCount, MaxJitter: sim.MaxJitter}}
	if got := carried[len(refused)]; got != want {
		t.Fatalf("last outcome %+v, want %+v", got, want)
	}
}

// TestStreamRegisterValidation pins /v1/streams/register's input checks: a
// clip needs a name, finite positive factors, and costs that stay finite at
// the largest resolution; the clips churn mints (factors 1 ± 0.12) pass.
func TestStreamRegisterValidation(t *testing.T) {
	base := ClipSpec{Name: "cam", AccBase: 0.9, AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1}
	with := func(f func(*ClipSpec)) ClipSpec {
		cs := base
		f(&cs)
		return cs
	}
	cases := []struct {
		name string
		clip ClipSpec
		ok   bool
	}{
		{"reference", base, true},
		{"minted", ClipSpecOf(runtime.MintClip("cam-minted", 42)), true},
		{"minted other seed", ClipSpecOf(runtime.MintClip("cam-7", 7)), true},
		{"no name", with(func(c *ClipSpec) { c.Name = "" }), false},
		{"zero acc base", with(func(c *ClipSpec) { c.AccBase = 0 }), false},
		{"zero acc factor", with(func(c *ClipSpec) { c.AccFactor = 0 }), false},
		{"negative compute", with(func(c *ClipSpec) { c.ComputeFac = -1 }), false},
		{"NaN bits", with(func(c *ClipSpec) { c.BitFac = math.NaN() }), false},
		{"infinite energy", with(func(c *ClipSpec) { c.EnergyFac = math.Inf(1) }), false},
		{"bits overflow", with(func(c *ClipSpec) { c.BitFac = 1e308 }), false},
	}
	rt := newRuntime(testSystem(2, 2), obs.NewRecorder(nil), false)
	h := New(rt, Options{}).Handler()
	for _, tc := range cases {
		if err := validClip(tc.clip); (err == nil) != tc.ok {
			t.Errorf("%s: validClip = %v, want ok=%v", tc.name, err, tc.ok)
		}
		body, err := json.Marshal(StreamRegisterRequest{Clip: tc.clip})
		if err != nil {
			continue // not expressible in JSON: only validClip sees it
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/streams/register", bytes.NewReader(body)))
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[tc.ok]; w.Code != want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, w.Code, want, w.Body.Bytes())
		}
	}
}
