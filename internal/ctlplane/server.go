package ctlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runtime"
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

// workItem is one dispatched evaluation, fenced by (epoch, version).
type workItem struct {
	epoch   int
	version uint64
	specs   []cluster.StreamSpec
	srv     cluster.Server
	horizon float64
	done    chan runtime.ServerEvalResult
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

	mu       sync.Mutex
	epoch    int
	version  uint64
	shutdown bool
	agents   []agentState
	ops      []runtime.StreamOp

	registersTotal    *obs.Counter
	pollsTotal        *obs.Counter
	dispatchesTotal   *obs.Counter
	resultsTotal      *obs.Counter
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
// result under the eval timeout.
func (c *Controller) EvaluateServer(ctx context.Context, epoch, server int, specs []cluster.StreamSpec, srv cluster.Server, horizon float64) (runtime.ServerEvalResult, error) {
	if server < 0 || server >= len(c.agents) {
		return runtime.ServerEvalResult{}, fmt.Errorf("ctlplane: server %d out of range", server)
	}
	item := &workItem{
		epoch:   epoch,
		specs:   append([]cluster.StreamSpec(nil), specs...), // evaluator contract: specs alias the caller's buffer
		srv:     srv,
		horizon: horizon,
		done:    make(chan runtime.ServerEvalResult, 1),
	}
	c.mu.Lock()
	c.version++
	item.version = c.version
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
	case r := <-item.done:
		return r, nil
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
	mux.HandleFunc("/v1/result", c.handleResult)
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
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
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

func (c *Controller) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !readJSON(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > pollWait {
		wait = pollWait
	}
	deadline := time.Now().Add(wait)
	c.pollsTotal.Inc()
	for {
		c.mu.Lock()
		a := c.fence(w, req.Server, req.Incarnation)
		if a == nil {
			c.mu.Unlock()
			return
		}
		if c.shutdown {
			c.mu.Unlock()
			writeJSON(w, PollResponse{Shutdown: true})
			return
		}
		if item := a.pending; item != nil {
			resp := PollResponse{
				Epoch: item.epoch, Version: item.version,
				Specs: item.specs, Server: item.srv, Horizon: item.horizon,
			}
			c.mu.Unlock()
			writeJSON(w, resp)
			return
		}
		notify := a.notify
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeJSON(w, PollResponse{NoWork: true})
			return
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			writeJSON(w, PollResponse{NoWork: true})
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

func (c *Controller) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	a := c.fence(w, req.Server, req.Incarnation)
	if a == nil {
		c.mu.Unlock()
		return
	}
	item := a.pending
	if item == nil || item.epoch != req.Epoch || item.version != req.Version {
		c.mu.Unlock()
		c.staleResultsTotal.Inc()
		http.Error(w, "no matching pending work (stale or duplicate result)", http.StatusConflict)
		return
	}
	a.pending = nil
	c.mu.Unlock()
	c.resultsTotal.Inc() // before the hand-off: the waiter may read the counter as soon as it wakes
	item.done <- req.Result
	writeJSON(w, ResultResponse{OK: true})
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
	if req.Clip.Name == "" {
		http.Error(w, "clip name required", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.ops = append(c.ops, runtime.StreamOp{Add: req.Clip.Clip()})
	pending := len(c.ops)
	c.mu.Unlock()
	c.streamOpsTotal.Inc()
	writeJSON(w, StreamOpResponse{OK: true, Pending: pending})
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
