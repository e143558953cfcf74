package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// span is one bench-side interval around a call into the program's public
// seams. Spans are kept in memory and written out after the run; Epoch ties
// the spans of one control-loop iteration together.
type span struct {
	Name    string  `json:"name"`
	Epoch   int     `json:"epoch"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog collects spans from the loop goroutine, the decide goroutine, the
// per-cell goroutines and the per-server evaluation goroutines. A nil log
// records nothing, which is the untraced configuration.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name string, epoch int, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{
		Name: name, Epoch: epoch,
		StartUS: float64(start.Sub(l.origin)) / float64(time.Microsecond),
		DurUS:   float64(end.Sub(start)) / float64(time.Microsecond),
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// totalUS sums the durations of every span with the given name.
func (l *spanLog) totalUS(name string) (sum float64, n int) {
	if l == nil {
		return 0, 0
	}
	for _, s := range l.spans {
		if s.Name == name {
			sum += s.DurUS
			n++
		}
	}
	return sum, n
}

// tickSource is the bench's runtime.OpSource: the controller calls Drain as
// the first thing in every epoch, so the call times are the epoch
// boundaries. It forwards to the real op source when there is one.
type tickSource struct {
	inner runtime.OpSource // nil: a stationary stream set
	log   *spanLog
	ticks []time.Time
}

func (t *tickSource) Drain(epoch int) []runtime.StreamOp {
	start := time.Now()
	t.ticks = append(t.ticks, start)
	if t.inner == nil {
		return nil
	}
	ops := t.inner.Drain(epoch)
	t.log.add("drain", epoch, start, time.Now())
	return ops
}

// fullScheduler is what both schedulers the benchmark drives implement. The
// wrapper below must offer the controller exactly the extensions the wrapped
// scheduler has: without MaskAware the controller compacts the fault mask
// away, without CellDecider Shards silently falls back to the serial path.
type fullScheduler interface {
	runtime.MaskAware
	runtime.CellDecider
}

var (
	_ fullScheduler       = (*runtime.PaMOScheduler)(nil)
	_ fullScheduler       = (*runtime.FixedScheduler)(nil)
	_ runtime.Scheduler   = (*timedScheduler)(nil)
	_ runtime.MaskAware   = (*timedScheduler)(nil)
	_ runtime.CellDecider = (*timedScheduler)(nil)
)

// returned is one decision the scheduler handed back, with the server set it
// was planned against (link faults rescale uplinks per epoch).
type returned struct {
	d       eva.Decision
	servers []cluster.Server
}

// timedScheduler wraps the scheduler seam: it times every call into a span
// and, when keep is set, retains the returned decisions so the exact
// feasibility audit can run after the loop, outside every timed interval.
type timedScheduler struct {
	inner fullScheduler
	log   *spanLog
	cap   *capture
	keep  bool

	mu        sync.Mutex
	decisions []returned
}

func (s *timedScheduler) record(d eva.Decision, err error, sys *objective.System) {
	if err != nil {
		return
	}
	s.cap.returned(sys, d)
	if !s.keep {
		return
	}
	s.mu.Lock()
	s.decisions = append(s.decisions, returned{d: d, servers: sys.Servers})
	s.mu.Unlock()
}

func (s *timedScheduler) Decide(ctx context.Context, sys *objective.System, epoch int) (eva.Decision, error) {
	start := time.Now()
	d, err := s.inner.Decide(ctx, sys, epoch)
	s.log.add("decide", epoch, start, time.Now())
	s.record(d, err, sys)
	return d, err
}

func (s *timedScheduler) DecideMasked(ctx context.Context, sys *objective.System, healthy []bool, epoch int) (eva.Decision, error) {
	start := time.Now()
	d, err := s.inner.DecideMasked(ctx, sys, healthy, epoch)
	s.log.add("decide", epoch, start, time.Now())
	s.record(d, err, sys)
	return d, err
}

func (s *timedScheduler) DecideCell(ctx context.Context, sys *objective.System, videos []int, epoch int) ([]videosim.Config, error) {
	start := time.Now()
	cfgs, err := s.inner.DecideCell(ctx, sys, videos, epoch)
	s.log.add("decide_cell", epoch, start, time.Now())
	s.cap.saw(sys)
	return cfgs, err
}

// timedEvaluator wraps the evaluation seam the wire workload dispatches
// through; only the traced pass installs it.
type timedEvaluator struct {
	inner runtime.ServerEvaluator
	log   *spanLog
	cap   *capture
}

func (e *timedEvaluator) EvaluateServer(ctx context.Context, epoch, server int, specs []cluster.StreamSpec, srv cluster.Server, horizon float64) (runtime.ServerEvalResult, error) {
	start := time.Now()
	r, err := e.inner.EvaluateServer(ctx, epoch, server, specs, srv, horizon)
	e.log.add("evaluate_server", epoch, start, time.Now())
	e.cap.addFrames(r.Frames)
	return r, err
}
