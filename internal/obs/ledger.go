package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"
)

// EpochLedger decomposes one epoch's benefit gap — planned benefit minus
// realized benefit — into named loss buckets, each attributed to a cause
// the control loop can act on:
//
//   - ShedLoss: benefit given up by the degradation policy's shed and
//     downgraded videos (planned-full vs planned-degraded, both on the
//     planning-time content and a healthy cluster).
//   - DriftLoss: benefit lost to content drift — the installed decision
//     scored on drifted clips vs the clips it was planned for.
//   - FaultLoss: benefit lost to the fault plane — down servers, stalled
//     cameras, degraded uplinks — i.e. drifted-healthy vs realized.
//
// A sharded solve's fallback to the serial path costs decide latency, not
// benefit, so it has no bucket; FellBack flags it.
//
// The invariant the ledger guarantees — and Close enforces to exact float
// equality — is
//
//	SumBuckets() == Planned - Realized
//
// under the canonical left-associated summation order of SumBuckets.
// DriftLoss is the residual bucket: it is seeded with its analytic value
// (planned-content vs drifted-content benefit) and then nudged by at most
// a few ULPs so the chain telescopes exactly; every other bucket keeps its
// analytically computed value bit-for-bit.
type EpochLedger struct {
	Epoch    int     `json:"epoch"`
	Planned  float64 `json:"planned"`  // benefit the planner thought it bought
	Realized float64 `json:"realized"` // benefit the epoch actually delivered

	ShedLoss  float64 `json:"shed_loss"`
	DriftLoss float64 `json:"drift_loss"`
	FaultLoss float64 `json:"fault_loss"`

	// Attribution detail: which streams and servers the buckets point at.
	FellBack         bool  `json:"fell_back,omitempty"`     // sharded solve fell back to serial
	ReplanFailed     bool  `json:"replan_failed,omitempty"` // scheduler errored, stale plan ran
	Degraded         bool  `json:"degraded,omitempty"`
	ShedVideos       []int `json:"shed_videos,omitempty"`
	DowngradedVideos []int `json:"downgraded_videos,omitempty"`
	ServersDown      []int `json:"servers_down,omitempty"`
	StalledCameras   []int `json:"stalled_cameras,omitempty"`
}

// SumBuckets returns the loss buckets summed in the canonical order the
// exactness guarantee is stated over: ((Shed+Drift)+Fault).
func (l *EpochLedger) SumBuckets() float64 {
	return l.ShedLoss + l.DriftLoss + l.FaultLoss
}

// Gap returns Planned − Realized, the quantity the buckets decompose.
func (l *EpochLedger) Gap() float64 { return l.Planned - l.Realized }

// Close makes the decomposition exact: it adjusts DriftLoss (the residual
// bucket) until SumBuckets() equals Gap() bit-for-bit. Floating-point
// addition is not associative, so a single algebraic residual is not
// guaranteed to close the chain; the fixup loop converges in one or two
// steps in practice and is bounded defensively. Non-finite inputs are left
// alone — CheckExact will report them.
func (l *EpochLedger) Close() {
	gap := l.Gap()
	if math.IsNaN(gap) || math.IsInf(gap, 0) {
		return
	}
	for i := 0; i < 64; i++ {
		diff := gap - l.SumBuckets()
		if diff == 0 {
			return
		}
		if math.IsNaN(diff) || math.IsInf(diff, 0) {
			return
		}
		l.DriftLoss += diff
	}
}

// CheckExact reports whether the canonical bucket sum equals the gap to
// exact float equality — the property Close establishes and golden tests pin.
func (l *EpochLedger) CheckExact() bool { return l.SumBuckets() == l.Gap() }

// RecordLedger emits the ledger as one JSONL record of kind "ledger",
// attributed to the span carried by ctx (normally the epoch span). The
// recorder keeps no copy: readers take the ledgers back from the stream
// (ReadEvents). Safe on a nil receiver.
func (r *Recorder) RecordLedger(ctx context.Context, l EpochLedger) {
	if r == nil {
		return
	}
	// Copy after the guard: taking &l directly would make the parameter
	// escape and heap-allocate at entry, charging disabled telemetry one
	// allocation per call.
	lc := l
	ev := Event{
		T:      time.Since(r.start).Seconds(),
		Kind:   "ledger",
		Name:   "epoch_ledger",
		Ledger: &lc,
	}
	if sp := SpanFromContext(ctx); sp != nil && sp.r == r {
		ev.Trace = sp.trace
		ev.Parent = sp.id
	}
	r.emit(ev)
}

// WriteLedgerTable renders per-epoch ledgers as an aligned text table (the
// pamo-trace -events-summary ledger output).
func WriteLedgerTable(w io.Writer, ledgers []EpochLedger) {
	fmt.Fprintf(w, "%5s %10s %10s %10s %10s %10s %6s %5s\n",
		"epoch", "planned", "realized", "shed", "drift", "fault", "shedN", "exact")
	for i := range ledgers {
		l := &ledgers[i]
		exact := "ok"
		if !l.CheckExact() {
			exact = "FAIL"
		}
		fmt.Fprintf(w, "%5d %10.5f %10.5f %10.5f %10.5f %10.5f %6d %5s\n",
			l.Epoch, l.Planned, l.Realized, l.ShedLoss, l.DriftLoss, l.FaultLoss,
			len(l.ShedVideos), exact)
	}
}
