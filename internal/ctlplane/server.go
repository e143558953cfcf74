package ctlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// Options tunes the controller daemon.
type Options struct {
	// MissedBeats is how many consecutive epochs a server may go without an
	// authenticated message before it is marked down (default 2). Marking a
	// server down synthesizes a fault.ServerDown event into the runtime
	// loop, which forces a masked replan exactly as a scripted crash would;
	// a returning beat marks it back up.
	MissedBeats int
	// EvalTimeout bounds one dispatched server evaluation (default 5s).
	// A timed-out dispatch scores the server as contributing nothing this
	// epoch — the liveness inference, not the timeout, decides whether the
	// server is down.
	EvalTimeout time.Duration
	// EpochInterval, when positive, paces the loop in wall time: Advance
	// sleeps this long before every epoch after the first, giving real
	// agents time to poll and heartbeat. Zero runs epochs in lock step,
	// which is what the hollow-agent harness wants.
	EpochInterval time.Duration
	// Env, when non-nil, feeds environmental faults (camera stalls, link
	// degradation — use fault.Scenario.Split to separate them from server
	// crashes) into the loop's state alongside the inferred liveness.
	Env *fault.Injector
	// OracleHealth short-circuits the liveness inference: Advance and State
	// delegate verbatim to Env, so the loop sees exactly what an in-process
	// injector-driven run sees while evaluations still go over the wire.
	// This is the configuration the wire-vs-golden equivalence tests use.
	OracleHealth bool
	// OnEpoch, when non-nil, is called at the top of every epoch after the
	// epoch counter advances and before liveness is inferred. The hollow
	// chaos driver kills and restarts agents here, synchronously, so fault
	// trajectories are reproducible.
	OnEpoch func(epoch int)
	// Obs receives ctlplane_* metrics and events (default: the runtime
	// controller's recorder).
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.MissedBeats <= 0 {
		o.MissedBeats = 2
	}
	if o.EvalTimeout <= 0 {
		o.EvalTimeout = 5 * time.Second
	}
	return o
}

// pollWait caps how long a poll may park waiting for work.
const pollWait = time.Second

// workItem is one dispatched evaluation, fenced by (epoch, version). body
// is its PollResponse, encoded once at dispatch and written as is by every
// poll that hands the item out.
type workItem struct {
	epoch   int
	version uint64
	body    []byte
	done    chan Outcome
}

// agentState is the controller's book on one physical server's agent.
type agentState struct {
	incarnation uint64
	registered  bool
	lastBeat    int  // epoch of the last authenticated message
	up          bool // current inferred liveness
	pending     *workItem
	notify      chan struct{} // closed on dispatch/shutdown, then replaced
}

// Controller is the daemon side of the control plane. It owns the runtime
// loop and implements its HealthSource, ServerEvaluator, and OpSource
// seams; agents talk to it through Handler's HTTP surface.
type Controller struct {
	rt  *runtime.Controller
	opt Options
	rec *obs.Recorder

	version atomic.Uint64 // last dispatched work version

	mu       sync.Mutex
	epoch    int
	shutdown bool
	agents   []agentState
	ops      []runtime.StreamOp

	registersTotal    *obs.Counter
	pollsTotal        *obs.Counter
	dispatchesTotal   *obs.Counter
	resultsTotal      *obs.Counter
	rejectedTotal     *obs.Counter
	staleResultsTotal *obs.Counter
	staleIncTotal     *obs.Counter
	heartbeatsTotal   *obs.Counter
	evalTimeoutsTotal *obs.Counter
	marksDownTotal    *obs.Counter
	marksUpTotal      *obs.Counter
	streamOpsTotal    *obs.Counter
	agentsUpGauge     *obs.Gauge
	hbUtilization     *obs.Histogram
	hbJitter          *obs.Histogram
}

// New wires a controller daemon onto a runtime controller: rt's Health,
// Eval, and Ops seams are pointed at the returned Controller, so rt.Run
// (via Controller.Run) drives the loop over the wire.
func New(rt *runtime.Controller, opt Options) *Controller {
	opt = opt.withDefaults()
	rec := opt.Obs
	if rec == nil {
		rec = rt.Obs
	}
	c := &Controller{rt: rt, opt: opt, rec: rec}
	reg := rec.Registry()
	c.registersTotal = reg.Counter("ctlplane_registers_total")
	c.pollsTotal = reg.Counter("ctlplane_polls_total")
	c.dispatchesTotal = reg.Counter("ctlplane_dispatches_total")
	c.resultsTotal = reg.Counter("ctlplane_results_total")
	c.rejectedTotal = reg.Counter("ctlplane_rejected_work_total")
	c.staleResultsTotal = reg.Counter("ctlplane_stale_results_total")
	c.staleIncTotal = reg.Counter("ctlplane_stale_incarnations_total")
	c.heartbeatsTotal = reg.Counter("ctlplane_heartbeats_total")
	c.evalTimeoutsTotal = reg.Counter("ctlplane_eval_timeouts_total")
	c.marksDownTotal = reg.Counter("ctlplane_marks_down_total")
	c.marksUpTotal = reg.Counter("ctlplane_marks_up_total")
	c.streamOpsTotal = reg.Counter("ctlplane_stream_ops_total")
	c.agentsUpGauge = reg.Gauge("ctlplane_agents_up")
	c.hbUtilization = reg.Histogram("ctlplane_heartbeat_utilization", obs.DefBuckets)
	c.hbJitter = reg.Histogram("ctlplane_heartbeat_jitter_seconds", obs.DefBuckets)

	n := rt.Sys.N()
	c.agents = make([]agentState, n)
	for j := range c.agents {
		// Optimistic start: the fleet is presumed healthy until beats go
		// missing, so a no-fault wire run synthesizes zero events — the
		// property the golden-equivalence tests pin. A server whose agent
		// never shows up is marked down after MissedBeats epochs like any
		// other silence.
		c.agents[j].up = true
		c.agents[j].notify = make(chan struct{})
	}
	rt.Health = c
	rt.Eval = c
	rt.Ops = c
	return c
}

// Run executes the wire-driven control loop and shuts the agents down when
// it returns.
func (c *Controller) Run(ctx context.Context, epochs int) (*runtime.Trace, error) {
	trace, err := c.rt.Run(ctx, epochs)
	c.Close()
	return trace, err
}

// Close marks the run over: parked and future polls return Shutdown so
// agents exit their loops.
func (c *Controller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shutdown {
		return
	}
	c.shutdown = true
	for j := range c.agents {
		close(c.agents[j].notify)
		c.agents[j].notify = make(chan struct{})
	}
}

// WaitAgents blocks until at least n agents have registered (or ctx ends).
// Call it before Run so epoch 0 starts against a full fleet.
func (c *Controller) WaitAgents(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		got := 0
		for j := range c.agents {
			if c.agents[j].registered {
				got++
			}
		}
		c.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ctlplane: waiting for agents (%d/%d registered): %w", got, n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// OnEpoch installs a hook called at each epoch boundary, before liveness
// inference runs. Install it after New and before Run; a chaos driver uses
// it to act out agent kills and restarts the controller must then infer.
func (c *Controller) OnEpoch(fn func(epoch int)) {
	c.opt.OnEpoch = fn
}

// Advance implements runtime.HealthSource: apply environmental faults, run
// the chaos hook, then infer liveness from heartbeat recency and report
// the flips as fault events. In OracleHealth mode the injector's events
// pass through verbatim instead.
func (c *Controller) Advance(epoch int) []fault.Event {
	if c.opt.EpochInterval > 0 && epoch > 0 {
		time.Sleep(c.opt.EpochInterval)
	}
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()

	var events []fault.Event
	if c.opt.Env != nil {
		events = append(events, c.opt.Env.Advance(epoch)...)
	}
	if hook := c.opt.OnEpoch; hook != nil {
		hook(epoch)
	}
	if c.opt.OracleHealth {
		return events
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	up := 0
	for j := range c.agents {
		a := &c.agents[j]
		// Liveness runs at the START of the epoch, before this epoch's
		// beats can arrive, so the fully-elapsed silent epochs are
		// lastBeat+1 .. epoch-1: epoch-lastBeat-1 of them. A server is dead
		// only when that count EXCEEDS the MissedBeats allowance —
		// comparing epoch-lastBeat against MissedBeats directly counts the
		// still-open boundary epoch as missed and fires one epoch early.
		alive := epoch-a.lastBeat <= c.opt.MissedBeats+1
		switch {
		case a.up && !alive:
			a.up = false
			c.marksDownTotal.Inc()
			events = append(events, fault.Event{Epoch: epoch, Action: fault.ServerDown, Target: j})
		case !a.up && alive:
			a.up = true
			c.marksUpTotal.Inc()
			events = append(events, fault.Event{Epoch: epoch, Action: fault.ServerUp, Target: j})
		}
		if a.up {
			up++
		}
	}
	c.agentsUpGauge.Set(float64(up))
	return events
}

// State implements runtime.HealthSource: inferred server liveness merged
// with the environmental injector's camera and link state.
func (c *Controller) State() fault.State {
	if c.opt.OracleHealth {
		return c.opt.Env.State()
	}
	var st fault.State
	if c.opt.Env != nil {
		st = c.opt.Env.State()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	down := make([]bool, len(c.agents))
	for j := range c.agents {
		down[j] = !c.agents[j].up
	}
	st.Down = down
	return st
}

// EvaluateServer implements runtime.ServerEvaluator: publish the work item
// for the server's agent, wake its parked poll, and wait for the fenced
// outcome under the eval timeout. An item the agent refuses fails at once,
// scored like a timeout.
func (c *Controller) EvaluateServer(ctx context.Context, epoch, server int, specs []cluster.StreamSpec, srv cluster.Server, horizon float64) (runtime.ServerEvalResult, error) {
	if server < 0 || server >= len(c.agents) {
		return runtime.ServerEvalResult{}, fmt.Errorf("ctlplane: server %d out of range", server)
	}
	item := &workItem{epoch: epoch, version: c.version.Add(1), done: make(chan Outcome, 1)}
	// Encoding here is also the copy the evaluator contract asks for: specs
	// alias the caller's buffer, the body does not.
	body, err := appendPollResponse(make([]byte, 0, 256+128*len(specs)), &PollResponse{
		Epoch: epoch, Version: item.version, Specs: specs, Server: srv, Horizon: horizon,
	})
	if err != nil {
		return runtime.ServerEvalResult{}, fmt.Errorf("ctlplane: server %d epoch %d work item: %w", server, epoch, err)
	}
	item.body = body
	c.mu.Lock()
	a := &c.agents[server]
	a.pending = item
	notify := a.notify
	a.notify = make(chan struct{})
	c.mu.Unlock()
	close(notify)
	c.dispatchesTotal.Inc()

	tctx, cancel := context.WithTimeout(ctx, c.opt.EvalTimeout)
	defer cancel()
	select {
	case o := <-item.done:
		if o.Reject != "" {
			return runtime.ServerEvalResult{}, fmt.Errorf("ctlplane: server %d epoch %d evaluation: agent refused the work item: %s", server, epoch, o.Reject)
		}
		return o.Result, nil
	case <-tctx.Done():
		c.mu.Lock()
		if a.pending == item {
			a.pending = nil
		}
		c.mu.Unlock()
		c.evalTimeoutsTotal.Inc()
		return runtime.ServerEvalResult{}, fmt.Errorf("ctlplane: server %d epoch %d evaluation: %w", server, epoch, tctx.Err())
	}
}

// Drain implements runtime.OpSource: hand the queued stream churn to the
// loop at the epoch boundary.
func (c *Controller) Drain(int) []runtime.StreamOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	ops := c.ops
	c.ops = nil
	return ops
}

// Handler returns the controller's HTTP surface: the /v1/ wire protocol
// plus the recorder registry's /metrics (Prometheus text, JSON, expvar).
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", c.handleRegister)
	mux.HandleFunc("/v1/poll", c.handlePoll)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/streams/register", c.handleStreamRegister)
	mux.HandleFunc("/v1/streams/deregister", c.handleStreamDeregister)
	mux.HandleFunc("/v1/status", c.handleStatus)
	mux.Handle("/metrics", c.rec.Registry().Handler())
	return mux
}

// Serve starts an HTTP server for Handler on addr and returns the bound
// address ("host:0" picks a free port).
func (c *Controller) Serve(addr string) (string, *http.Server, error) {
	srv := &http.Server{Handler: c.Handler()}
	ln, err := newListener(addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}

func newListener(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON writes v with encoding/json, or a 500 when v cannot be encoded
// (a non-finite float): the client must not read an empty 200 as success.
func writeJSON(w http.ResponseWriter, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		http.Error(w, "encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body.Bytes())
}

// writeBody writes an encoded JSON body. A failed write is the client's
// loss: it sees a transport error and retries.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// fence validates the server index and incarnation under c.mu and records
// the beat. Returns the agent, or nil after writing the HTTP error.
func (c *Controller) fence(w http.ResponseWriter, server int, incarnation uint64) *agentState {
	if server < 0 || server >= len(c.agents) {
		http.Error(w, "server index out of range", http.StatusBadRequest)
		return nil
	}
	a := &c.agents[server]
	if a.incarnation != incarnation {
		c.staleIncTotal.Inc()
		http.Error(w, "stale incarnation", http.StatusConflict)
		return nil
	}
	a.lastBeat = c.epoch
	return a
}

func (c *Controller) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	if req.Server < 0 || req.Server >= len(c.agents) {
		c.mu.Unlock()
		http.Error(w, "server index out of range", http.StatusBadRequest)
		return
	}
	a := &c.agents[req.Server]
	a.incarnation++
	a.registered = true
	a.lastBeat = c.epoch
	a.pending = nil // a predecessor's undelivered work dies with it
	resp := RegisterResponse{Incarnation: a.incarnation, Epoch: c.epoch}
	c.mu.Unlock()
	c.registersTotal.Inc()
	writeJSON(w, resp)
}

// Poll bodies that carry no work item: encoded once, written as is.
var (
	noWorkBody   = mustEncode(PollResponse{NoWork: true})
	shutdownBody = mustEncode(PollResponse{Shutdown: true})
)

func mustEncode(m PollResponse) []byte {
	b, err := appendPollResponse(nil, &m)
	if err != nil {
		panic(err)
	}
	return b
}

// handlePoll fences the poll's incarnation (a stale one gets 409 for the
// whole poll, outcome included), applies the outcome it carries, then hands
// out the pending work item or parks until one arrives.
func (c *Controller) handlePoll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var (
		req PollRequest
		dec decoder
	)
	body, err := readBody(r.Body, make([]byte, 0, 512))
	if err == nil {
		err = dec.pollRequest(body, &req)
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > pollWait {
		wait = pollWait
	}
	deadline := time.Now().Add(wait)
	c.pollsTotal.Inc()
	c.mu.Lock()
	a := c.fence(w, req.Server, req.Incarnation)
	if a != nil && req.Done != nil {
		c.settle(a, req.Done)
	}
	for a != nil {
		if c.shutdown {
			c.mu.Unlock()
			writeBody(w, shutdownBody)
			return
		}
		if item := a.pending; item != nil {
			c.mu.Unlock()
			writeBody(w, item.body)
			return
		}
		notify := a.notify
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeBody(w, noWorkBody)
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			writeBody(w, noWorkBody)
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		c.mu.Lock()
		a = c.fence(w, req.Server, req.Incarnation)
	}
	c.mu.Unlock()
}

// settle applies an outcome carried on a poll to the agent's pending item;
// c.mu is held. An outcome for anything but the pending (epoch, version) is
// a duplicate or a straggler, counted and dropped.
func (c *Controller) settle(a *agentState, o *Outcome) {
	item := a.pending
	if item == nil || item.epoch != o.Epoch || item.version != o.Version {
		c.staleResultsTotal.Inc()
		return
	}
	a.pending = nil
	if o.Reject != "" {
		c.rejectedTotal.Inc()
	} else {
		c.resultsTotal.Inc() // before the hand-off: the waiter may read the counter as soon as it wakes
	}
	item.done <- *o // cannot block: the buffer holds one and only the pending item's settle sends
}

func (c *Controller) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	a := c.fence(w, req.Server, req.Incarnation)
	epoch := c.epoch
	c.mu.Unlock()
	if a == nil {
		return
	}
	c.heartbeatsTotal.Inc()
	c.hbUtilization.Observe(req.Utilization)
	c.hbJitter.Observe(req.MaxJitter)
	writeJSON(w, HeartbeatResponse{Epoch: epoch})
}

func (c *Controller) handleStreamRegister(w http.ResponseWriter, r *http.Request) {
	var req StreamRegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := validClip(req.Clip); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.ops = append(c.ops, runtime.StreamOp{Add: req.Clip.Clip()})
	pending := len(c.ops)
	c.mu.Unlock()
	c.streamOpsTotal.Inc()
	writeJSON(w, StreamOpResponse{OK: true, Pending: pending})
}

// validClip refuses a clip the scheduler could not cost: a missing name, a
// factor that is not finite and positive, or one whose per-frame compute
// time or frame size overflows at the largest resolution.
func validClip(cs ClipSpec) error {
	if cs.Name == "" {
		return errors.New("clip name required")
	}
	for _, f := range [...]float64{cs.AccBase, cs.AccFactor, cs.ComputeFac, cs.BitFac, cs.EnergyFac} {
		if !(f > 0) || math.IsInf(f, 1) {
			return fmt.Errorf("clip %q: factors must be finite and positive", cs.Name)
		}
	}
	clip := cs.Clip()
	top := videosim.Config{Resolution: slices.Max(videosim.Resolutions)}
	if p, b := clip.ProcTime(top.Resolution), clip.BitsPerFrame(top.Resolution); math.IsInf(p, 0) || math.IsInf(b, 0) {
		return fmt.Errorf("clip %q: cost at resolution %g is not finite", cs.Name, top.Resolution)
	}
	return nil
}

func (c *Controller) handleStreamDeregister(w http.ResponseWriter, r *http.Request) {
	var req StreamDeregisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		http.Error(w, "stream name required", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.ops = append(c.ops, runtime.StreamOp{Remove: req.Name})
	pending := len(c.ops)
	c.mu.Unlock()
	c.streamOpsTotal.Inc()
	writeJSON(w, StreamOpResponse{OK: true, Pending: pending})
}

func (c *Controller) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := StatusResponse{Epoch: c.epoch, Servers: len(c.agents), Up: []int{}, Down: []int{}}
	for j := range c.agents {
		if c.agents[j].registered {
			resp.Registered++
		}
		if c.agents[j].up {
			resp.Up = append(resp.Up, j)
		} else {
			resp.Down = append(resp.Down, j)
		}
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}
