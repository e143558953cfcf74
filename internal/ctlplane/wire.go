// Package ctlplane is the distributed control plane: it splits the online
// runtime into a controller daemon that owns the scheduling loop and
// per-server agents that execute evaluations and report telemetry over
// HTTP/JSON.
//
// The controller plugs into runtime.Controller through three seams — it is
// the loop's HealthSource (heartbeat-inferred liveness instead of the
// scripted injector oracle), its ServerEvaluator (per-server epoch
// evaluations dispatched to agents over the wire), and its OpSource
// (stream register/deregister arriving over HTTP). Because the wire's JSON
// numbers are shortest round-trip decimals parsed back by strconv, float64
// values cross exactly, and a wire-driven run with healthy agents
// reproduces the in-process golden traces byte-exactly.
//
// Robustness is the point: liveness is *inferred* from missed beats (the
// controller never sees the fault injector), every dispatch is fenced by a
// per-agent incarnation and a monotone work version so stale or duplicate
// applies are idempotently rejected, and the client wraps every call in a
// timeout with capped, jittered exponential backoff. A hollow-agent mode
// runs thousands of simulated agents in one process over a loopback
// transport, turning internal/fault scenarios into a chaos driver for
// 1k+-server fleets in CI.
package ctlplane

import (
	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// Wire protocol. All endpoints are POST with JSON bodies under /v1/. One
// evaluation is one exchange: a work item leaves on a poll's response, and
// its outcome — the result, or the agent's refusal to run the item — rides
// the agent's next poll (PollRequest.Done). The two poll messages go
// through codec.go's hand-written codec, byte for byte what encoding/json
// writes; the cold endpoints use encoding/json itself.
//
// Fencing rules:
//
//   - Every register bumps the server's incarnation; any later message
//     carrying an older incarnation is rejected with 409 (a restarted
//     agent's predecessor can never act on its behalf). A poll from a stale
//     incarnation is refused whole, outcome included.
//   - Every dispatched work item carries a globally monotone version; an
//     agent that sees version <= its last completed version re-acks its
//     cached outcome on its next poll instead of re-executing, and the
//     controller drops (and counts) an outcome whose (epoch, version) does
//     not match the server's pending item, then serves the poll as usual.
//     Both sides are idempotent under duplicates, reorders and a transport
//     retry resending the same poll.

// RegisterRequest announces an agent for one physical server index.
type RegisterRequest struct {
	Server int    `json:"server"`
	Name   string `json:"name,omitempty"`
}

// RegisterResponse returns the fencing token the agent must present on
// every subsequent message.
type RegisterResponse struct {
	Incarnation uint64 `json:"incarnation"`
	Epoch       int    `json:"epoch"`
}

// PollRequest asks for the server's pending work item, parking up to
// WaitMS milliseconds (capped by the controller) when none is pending.
// Done carries the outcome of the agent's last work item until a poll
// carrying it has been answered.
type PollRequest struct {
	Server      int      `json:"server"`
	Incarnation uint64   `json:"incarnation"`
	WaitMS      int      `json:"wait_ms,omitempty"`
	Done        *Outcome `json:"done,omitempty"`
}

// Outcome is an agent's answer to one work item, fenced by the item's
// (epoch, version): the evaluation's Result, or, when Reject is set, why
// the agent refused to run the item.
type Outcome struct {
	Epoch   int                      `json:"epoch"`
	Version uint64                   `json:"version"`
	Reject  string                   `json:"reject,omitempty"`
	Result  runtime.ServerEvalResult `json:"result"`
}

// PollResponse carries one work item (an epoch evaluation of the server's
// assigned streams), or NoWork when the park expired, or Shutdown when the
// run is over and the agent should exit.
type PollResponse struct {
	NoWork   bool                 `json:"no_work,omitempty"`
	Shutdown bool                 `json:"shutdown,omitempty"`
	Epoch    int                  `json:"epoch"`
	Version  uint64               `json:"version"`
	Specs    []cluster.StreamSpec `json:"specs"`
	Server   cluster.Server       `json:"server_spec"`
	Horizon  float64              `json:"horizon"`
}

// HeartbeatRequest reports agent telemetry between work items. Any
// authenticated message counts as a beat; the explicit heartbeat exists so
// an idle agent stays visibly alive and its utilization/jitter reach the
// controller's metrics.
type HeartbeatRequest struct {
	Server      int     `json:"server"`
	Incarnation uint64  `json:"incarnation"`
	Utilization float64 `json:"utilization"`
	MaxJitter   float64 `json:"max_jitter_s"`
}

// HeartbeatResponse returns the controller's current epoch so agents can
// log against loop time.
type HeartbeatResponse struct {
	Epoch int `json:"epoch"`
}

// ClipSpec is the wire form of a video source: the exported analytic
// factors of videosim.Clip. Wire-registered clips have zero content phase,
// which is deterministic like everything else.
type ClipSpec struct {
	Name       string  `json:"name"`
	AccBase    float64 `json:"acc_base"`
	AccFactor  float64 `json:"acc_factor"`
	ComputeFac float64 `json:"compute_fac"`
	BitFac     float64 `json:"bit_fac"`
	EnergyFac  float64 `json:"energy_fac"`
}

// Clip materializes the spec.
func (cs ClipSpec) Clip() *videosim.Clip {
	return &videosim.Clip{
		Name: cs.Name, AccBase: cs.AccBase, AccFactor: cs.AccFactor,
		ComputeFac: cs.ComputeFac, BitFac: cs.BitFac, EnergyFac: cs.EnergyFac,
	}
}

// StreamRegisterRequest adds a video source at the next epoch boundary.
type StreamRegisterRequest struct {
	Clip ClipSpec `json:"clip"`
}

// StreamDeregisterRequest removes the named video source at the next epoch
// boundary.
type StreamDeregisterRequest struct {
	Name string `json:"name"`
}

// StreamOpResponse acknowledges a queued stream op.
type StreamOpResponse struct {
	OK      bool `json:"ok"`
	Pending int  `json:"pending"` // ops queued for the next epoch boundary
}

// StatusResponse is the controller's /v1/status snapshot.
type StatusResponse struct {
	Epoch      int   `json:"epoch"`
	Servers    int   `json:"servers"`
	Registered int   `json:"registered"`
	Up         []int `json:"up"`
	Down       []int `json:"down"`
}
