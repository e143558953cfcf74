package ctlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// ErrFenced marks a request the controller rejected as stale: one from an
// older incarnation. Fenced requests must not be retried: the agent they
// came from has been superseded.
var ErrFenced = errors.New("ctlplane: fenced")

// ErrShutdown is returned by Agent.Run when the controller announced the
// end of the run.
var ErrShutdown = errors.New("ctlplane: controller shut down")

// Backoff is a capped exponential backoff with deterministic ±20% jitter.
// The zero value means Base 50ms, Max 2s, jitter on — per the control
// plane's default, transport retries are always jittered so a fleet of
// agents losing the same controller does not reconnect in lockstep. Seed
// decorrelates agents (use the server index); NoJitter disables the spread
// for tests that need exact delays.
type Backoff struct {
	Base     time.Duration
	Max      time.Duration
	Seed     uint64
	NoJitter bool
}

// Delay returns the attempt-th delay (attempt counts from 0).
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if b.NoJitter {
		return d
	}
	u := stats.SplitMix64(b.Seed ^ uint64(attempt)*0x9E3779B97F4A7C15 ^ 0xC71)
	f := 0.8 + 0.4*float64(u>>11)/(1<<53)
	return time.Duration(float64(d) * f)
}

// Client is the agent side of the wire protocol: every call runs under an
// explicit timeout, transport errors and 5xx responses are retried with
// the capped jittered backoff, and 4xx responses are not: 409s surface as
// ErrFenced (fencing is a verdict, not a glitch), and any other 4xx names
// a request that resending cannot fix.
type Client struct {
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient; the
	// hollow harness swaps in a loopback transport here).
	HTTP *http.Client
	// Timeout bounds one attempt of one call, excluding requested poll
	// park time (default 5s).
	Timeout time.Duration
	// Retries is how many extra attempts a transport-failed call gets
	// (default 3; negative disables).
	Retries int
	Backoff Backoff
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

func (cl *Client) timeout() time.Duration {
	if cl.Timeout > 0 {
		return cl.Timeout
	}
	return 5 * time.Second
}

// call POSTs in as JSON to path and decodes the response into out (nil:
// discard it), under exchange's retries.
func (cl *Client) call(ctx context.Context, path string, in, out any, extra time.Duration) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("ctlplane: encoding %s request: %w", path, err)
	}
	_, err = cl.exchange(ctx, path, body, nil, extra, func(b []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(b, out)
	})
	return err
}

// exchange POSTs body to path, reads the response into buf (returned,
// grown) and hands it to decode, retrying transport errors, 5xx and
// undecodable responses under the backoff; a 4xx returns at once. extra
// widens the per-attempt timeout (poll park time).
func (cl *Client) exchange(ctx context.Context, path string, body, buf []byte, extra time.Duration, decode func([]byte) error) ([]byte, error) {
	retries := cl.Retries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0
	}
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(cl.Backoff.Delay(attempt - 1)):
			case <-ctx.Done():
				return buf, ctx.Err()
			}
		}
		buf, err = cl.once(ctx, path, body, buf, extra)
		if err == nil {
			if err = decode(buf); err != nil {
				err = fmt.Errorf("ctlplane: %s: decoding response: %w", path, err)
			}
		}
		var se *statusError
		if err == nil || errors.Is(err, ErrFenced) || (errors.As(err, &se) && se.code < 500) || ctx.Err() != nil {
			return buf, err
		}
	}
	return buf, err
}

func (cl *Client) once(ctx context.Context, path string, body, buf []byte, extra time.Duration) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, cl.timeout()+extra)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return buf, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return buf, fmt.Errorf("%w: %s: %s", ErrFenced, path, bytes.TrimSpace(msg))
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return buf, &statusError{path: path, code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return readBody(resp.Body, buf)
}

// statusError is a non-200 answer other than 409.
type statusError struct {
	path string
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("ctlplane: %s: HTTP %d: %s", e.path, e.code, e.msg)
}

// Agent is one edge server's worker: it registers, long-polls for
// dispatched evaluations, runs them on its own DES arena, and reports each
// fenced outcome on its next poll. Version fencing makes it idempotent —
// work at or below its last completed version re-acks the cached outcome
// instead of re-executing.
type Agent struct {
	Server int
	Name   string
	Client *Client
	// PollWaitMS is the park time requested per poll (default 1000,
	// capped by the controller).
	PollWaitMS int
	// HeartbeatEvery, when positive, sends explicit telemetry heartbeats
	// between work items (daemon mode). Zero relies on polls as beats,
	// which is what the lock-step hollow harness wants.
	HeartbeatEvery time.Duration
	// GiveUpAfter bounds how long the poll loop tolerates nothing but
	// transport errors before Run returns the last one. Zero retries
	// forever (the hollow harness owns its agents' lifetimes via ctx); the
	// pamo-agent daemon sets it so a dead controller does not strand the
	// process.
	GiveUpAfter time.Duration
	// OnRegistered fires after each successful register with the granted
	// incarnation (the hollow fleet synchronizes restarts on it).
	OnRegistered func(incarnation uint64)
	// Obs receives the agent-side ctlplane_agent_* metrics (nil = off).
	Obs *obs.Recorder

	arena       *cluster.Arena
	incarnation uint64
	lastUtil    float64
	lastJitter  float64
	last        Outcome      // the outcome of the newest work item seen
	dec         decoder      // parses poll responses into work
	work        PollResponse // the last poll's response; Specs alias dec
	resp        []byte       // response read buffer
}

// Run drives the agent loop until ctx ends, the controller shuts down
// (returns nil), or this agent is fenced out by a successor (returns
// ErrFenced-wrapped error).
func (a *Agent) Run(ctx context.Context) error {
	reg := a.Obs.Registry()
	evals := reg.Counter("ctlplane_agent_evals_total")
	staleWork := reg.Counter("ctlplane_agent_stale_work_total")
	badWork := reg.Counter("ctlplane_agent_bad_work_total")
	a.arena = cluster.NewArena()

	var rr RegisterResponse
	if err := a.Client.call(ctx, "/v1/register", RegisterRequest{Server: a.Server, Name: a.Name}, &rr, 0); err != nil {
		return fmt.Errorf("ctlplane: agent %d register: %w", a.Server, err)
	}
	a.incarnation = rr.Incarnation
	if a.OnRegistered != nil {
		a.OnRegistered(rr.Incarnation)
	}

	wait := a.PollWaitMS
	if wait <= 0 {
		wait = 1000
	}
	lastBeat := time.Now()
	lastOK := time.Now()
	var carry *Outcome // rides the next poll; nil once a poll carrying it was answered
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		pr, err := a.poll(ctx, carry, wait)
		switch {
		case err == nil:
			lastOK = time.Now()
			carry = nil
		case errors.Is(err, ErrFenced):
			// A newer incarnation registered for this server: a successor
			// owns the index now, and acting on its behalf is exactly what
			// fencing exists to stop.
			return fmt.Errorf("ctlplane: agent %d superseded: %w", a.Server, err)
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			if a.GiveUpAfter > 0 && time.Since(lastOK) > a.GiveUpAfter {
				return fmt.Errorf("ctlplane: agent %d gave up after %v without a reachable controller: %w", a.Server, a.GiveUpAfter, err)
			}
			continue // transport trouble: the call already backed off; poll again, outcome and all
		}
		switch {
		case pr.Shutdown:
			return nil
		case pr.NoWork:
		case pr.Version <= a.last.Version:
			// A duplicated or retried delivery of answered work: re-ack
			// the cached outcome instead of re-executing.
			staleWork.Inc()
			if pr.Version == a.last.Version {
				carry = &a.last
			}
		default:
			a.last = Outcome{Epoch: pr.Epoch, Version: pr.Version}
			if err := checkWork(pr); err != nil {
				// The refusal rides the next poll, and the controller fails
				// the dispatch at once instead of handing the item back.
				badWork.Inc()
				a.last.Reject = err.Error()
			} else {
				a.last.Result = a.evaluate(pr)
				evals.Inc()
			}
			carry = &a.last
		}
		if a.HeartbeatEvery > 0 && time.Since(lastBeat) >= a.HeartbeatEvery {
			lastBeat = time.Now()
			_ = a.Client.call(ctx, "/v1/heartbeat", HeartbeatRequest{
				Server: a.Server, Incarnation: a.incarnation,
				Utilization: a.lastUtil, MaxJitter: a.lastJitter,
			}, &HeartbeatResponse{}, 0)
		}
	}
}

// poll sends one poll carrying done (nil: nothing to report) and returns
// the controller's answer, parsed into the agent's reused work buffer.
func (a *Agent) poll(ctx context.Context, done *Outcome, wait int) (*PollResponse, error) {
	req := PollRequest{Server: a.Server, Incarnation: a.incarnation, WaitMS: wait, Done: done}
	// A fresh request buffer per poll: the transport may still hold the
	// last one's body after Do returns.
	body, err := appendPollRequest(make([]byte, 0, 192), &req)
	if err != nil {
		// A result JSON cannot carry still answers the item, as a refusal.
		*done = Outcome{Epoch: done.Epoch, Version: done.Version, Reject: "result not encodable: " + err.Error()}
		if body, err = appendPollRequest(body[:0], &req); err != nil {
			return nil, err
		}
	}
	a.resp, err = a.Client.exchange(ctx, "/v1/poll", body, a.resp, time.Duration(wait)*time.Millisecond,
		func(b []byte) error { return a.dec.pollResponse(b, &a.work) })
	return &a.work, err
}

// evaluate runs the dispatched specs on the agent's DES arena and reports
// the simulator's own LatSum and FrameCount. The controller's in-process
// evaluation reads the same summary fields off the same simulator, so a
// wire-driven run merges to bit-identical epoch outcomes.
func (a *Agent) evaluate(pr *PollResponse) runtime.ServerEvalResult {
	res := a.arena.SimulateServer(pr.Specs, pr.Server, pr.Horizon)
	out := runtime.ServerEvalResult{LatSum: res.LatSum, Frames: res.FrameCount, MaxJitter: res.MaxJitter}
	a.lastUtil = res.Utilization
	a.lastJitter = res.MaxJitter
	return out
}

// maxStreamsPerServer is the most streams a work item may reasonably
// carry. Const2 (Σ proc/period ≤ 1) admits about 80 streams on a unit-speed
// server at the cheapest configuration the knob grids offer, so 1024 leaves
// room for fast servers and for costs far below the calibration.
const maxStreamsPerServer = 1024

// maxWorkFrames bounds the frames one work item may ask the DES for,
// Σ horizon/period over its streams: a full eva.EvalHorizon (30 s) of
// maxStreamsPerServer streams at the fastest videosim.FrameRates entry
// (30 fps), 921,600 frames, some 20 ms of simulation at ~20 ns a frame.
var maxWorkFrames = eva.EvalHorizon * slices.Max(videosim.FrameRates) * maxStreamsPerServer

// checkWork refuses an item the simulator cannot run or should not: it
// panics on a horizon or a stream period that is not positive, never ends
// on an infinite horizon, and would hold the agent far past any eval
// timeout on an item of more than maxWorkFrames frames. The item comes off
// the wire, so a malformed one is bad input to refuse, not a reason to take
// the agent down.
func checkWork(pr *PollResponse) error {
	if !(pr.Horizon > 0) || math.IsInf(pr.Horizon, 1) {
		return fmt.Errorf("horizon %g is not finite and positive", pr.Horizon)
	}
	frames := 0.0
	for _, s := range pr.Specs {
		if !(s.Period > 0) {
			return fmt.Errorf("stream %q: period %g is not positive", s.Name, s.Period)
		}
		frames += pr.Horizon / s.Period
	}
	if frames > maxWorkFrames {
		return fmt.Errorf("%.3g frames exceed the %g-frame bound on one work item", frames, maxWorkFrames)
	}
	return nil
}
