package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"time"

	"repro/internal/check"
	"repro/internal/runtime"
)

// dayResult is what one day of one workload produced.
type dayResult struct {
	Epochs  int       // configured
	WallS   float64   // Run's wall time
	EpochMS []float64 // one per epoch reached
	Replan  []bool    // parallel to EpochMS: the epoch installed a decision
	Failed  int       // epochs with ReplanFailed, plus epochs never reached
	// Decisions/Infeasible are the bench-side audit's counts (Audit
	// workloads only).
	Decisions   int
	Infeasible  int
	AllocBytes  uint64
	MeanBenefit float64
	Fingerprint uint64
	Err         error
}

// errDiverged marks a wire day that did not reproduce its in-process replay:
// an incorrect output, not a failed operation.
var errDiverged = errors.New("wire run diverged from its in-process replay")

// runDay builds and runs one day. With replay set, a wire day is run again
// in-process and must match.
func runDay(w *workload, seed uint64, epochs int, tr *tracer, replay bool) dayResult {
	res := dayResult{Epochs: epochs}
	d, err := w.build(w, seed, epochs, tr)
	if err != nil {
		res.Err = fmt.Errorf("%s: set-up: %w", w.Name, err)
		res.Failed = epochs
		return res
	}
	defer d.close()
	d.tick.ticks = make([]time.Time, 0, epochs)

	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	start := time.Now()
	trace, err := d.run(context.Background(), epochs)
	end := time.Now()
	goruntime.ReadMemStats(&ms1)
	res.WallS = end.Sub(start).Seconds()
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Err = err

	// Epoch k runs from its Drain call to the next one; the last epoch
	// closes when Run returns. An epoch the loop entered but aborted has no
	// report and no latency.
	ticks := d.tick.ticks
	reached := min(len(trace.Reports), len(ticks))
	for k := 0; k < reached; k++ {
		stop := end
		if k+1 < len(ticks) {
			stop = ticks[k+1]
		}
		res.EpochMS = append(res.EpochMS, float64(stop.Sub(ticks[k]))/float64(time.Millisecond))
		r := trace.Reports[k]
		res.Replan = append(res.Replan, r.Replanned)
		if r.ReplanFailed {
			res.Failed++
		}
	}
	res.Failed += epochs - reached
	res.MeanBenefit = trace.MeanBenefit()
	res.Fingerprint = fingerprint(trace)

	if w.Audit {
		chk := check.New(true, nil)
		for _, r := range d.sched.decisions {
			res.Decisions++
			if chk.VerifyDecisionServers(r.d, r.servers) != nil {
				res.Infeasible++
			}
		}
	}

	if err == nil && d.replay != nil && replay {
		want, rerr := d.replay(epochs)
		switch {
		case rerr != nil:
			res.Err = fmt.Errorf("%s: in-process replay: %w", w.Name, rerr)
		case fingerprint(want) != res.Fingerprint || want.MeanBenefit() != res.MeanBenefit:
			res.Err = fmt.Errorf("%s: %w (mean benefit %v vs %v)", w.Name, errDiverged, res.MeanBenefit, want.MeanBenefit())
		}
	}
	return res
}

// fingerprint hashes what a day decided and measured: every epoch's
// benefit bits, whether it replanned or ran degraded, and where the streams
// sat. Two runs of one binary on one seed must agree.
func fingerprint(trace *runtime.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, r := range trace.Reports {
		put(math.Float64bits(r.Benefit))
		put(flag(r.Replanned)<<1 | flag(r.Degraded))
		put(uint64(len(r.ServerStreams)))
		for _, n := range r.ServerStreams {
			put(uint64(n))
		}
	}
	return h.Sum64()
}
