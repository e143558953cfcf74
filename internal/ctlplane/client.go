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
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// ErrFenced marks a request the controller rejected as stale — an older
// incarnation, or a result whose (epoch, version) no longer matches the
// pending work. Fenced requests must not be retried: the state they were
// about no longer exists.
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
// the capped jittered backoff, and 409s surface as ErrFenced (never
// retried — fencing is a verdict, not a glitch).
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

// call POSTs in as JSON to path and decodes the response into out,
// retrying transport errors and 5xx under the backoff. extra widens the
// per-attempt timeout (poll park time).
func (cl *Client) call(ctx context.Context, path string, in, out any, extra time.Duration) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("ctlplane: encoding %s request: %w", path, err)
	}
	retries := cl.Retries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(cl.Backoff.Delay(attempt - 1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		lastErr = cl.once(ctx, path, body, out, extra)
		if lastErr == nil || errors.Is(lastErr, ErrFenced) || ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

func (cl *Client) once(ctx context.Context, path string, body []byte, out any, extra time.Duration) error {
	actx, cancel := context.WithTimeout(ctx, cl.timeout()+extra)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, cl.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%w: %s: %s", ErrFenced, path, bytes.TrimSpace(msg))
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("ctlplane: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Agent is one edge server's worker: it registers, long-polls for
// dispatched evaluations, runs them on its own DES arena, and reports
// fenced results. Version fencing makes it idempotent — work at or below
// its last completed version re-acks the cached result instead of
// re-executing.
type Agent struct {
	Server int
	Name   string
	Client *Client
	// PollWaitMS is the park time requested per poll (default 1000,
	// capped by the controller).
	PollWaitMS int
	// HeartbeatEvery, when positive, sends explicit telemetry heartbeats
	// between work items (daemon mode). Zero relies on polls and results
	// as beats, which is what the lock-step hollow harness wants.
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
	lastVersion uint64
	lastUtil    float64
	lastJitter  float64
	lastResult  ResultRequest
	haveResult  bool
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
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var pr PollResponse
		err := a.Client.call(ctx, "/v1/poll",
			PollRequest{Server: a.Server, Incarnation: a.incarnation, WaitMS: wait},
			&pr, time.Duration(wait)*time.Millisecond)
		switch {
		case err == nil:
			lastOK = time.Now()
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
			continue // transport trouble: call already backed off; poll again
		}
		switch {
		case pr.Shutdown:
			return nil
		case pr.NoWork:
		case pr.Version <= a.lastVersion:
			// Duplicate dispatch of completed work (a lost result ack):
			// re-ack the cached result instead of re-executing.
			staleWork.Inc()
			if a.haveResult && pr.Version == a.lastResult.Version {
				_ = a.sendResult(ctx, a.lastResult)
			}
		case !validWork(pr):
			// Send no result: the controller's EvalTimeout scores the server
			// as failed, as it does for a crashed agent. Re-dispatches of
			// the item count as stale work.
			badWork.Inc()
			a.lastVersion = pr.Version
		default:
			res := a.evaluate(pr)
			evals.Inc()
			a.lastVersion = pr.Version
			a.lastResult = ResultRequest{
				Server: a.Server, Incarnation: a.incarnation,
				Epoch: pr.Epoch, Version: pr.Version, Result: res,
			}
			a.haveResult = true
			if err := a.sendResult(ctx, a.lastResult); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
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

// evaluate runs the dispatched specs on the agent's DES arena and reports
// the simulator's own LatSum and FrameCount. The controller's in-process
// evaluation reads the same summary fields off the same simulator, so a
// wire-driven run merges to bit-identical epoch outcomes.
func (a *Agent) evaluate(pr PollResponse) runtime.ServerEvalResult {
	res := a.arena.SimulateServer(pr.Specs, pr.Server, pr.Horizon)
	out := runtime.ServerEvalResult{LatSum: res.LatSum, Frames: res.FrameCount, MaxJitter: res.MaxJitter}
	a.lastUtil = res.Utilization
	a.lastJitter = res.MaxJitter
	return out
}

// validWork reports whether the simulator can run a dispatched item: it
// panics on a horizon or a stream period that is not positive, and never
// ends on an infinite horizon. The item comes off the wire, so a malformed
// one is bad input to reject, not a reason to take the agent down.
func validWork(pr PollResponse) bool {
	if !(pr.Horizon > 0) || math.IsInf(pr.Horizon, 1) {
		return false
	}
	for _, s := range pr.Specs {
		if !(s.Period > 0) {
			return false
		}
	}
	return true
}

// sendResult reports a fenced result. A fenced rejection is success from
// the agent's point of view: the controller either already has this result
// or has moved past it.
func (a *Agent) sendResult(ctx context.Context, rr ResultRequest) error {
	err := a.Client.call(ctx, "/v1/result", rr, &ResultResponse{}, 0)
	if errors.Is(err, ErrFenced) {
		return nil
	}
	return err
}
