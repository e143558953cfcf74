package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/obs"
)

// tracer carries what a traced day attaches; a nil tracer is the untraced
// configuration, so every accessor is nil-safe.
type tracer struct {
	log *spanLog      // bench-side spans around the seam calls
	rec *obs.Recorder // what the program itself emits when observed
	cap *capture
}

func newTracer() *tracer {
	return &tracer{log: newSpanLog(), rec: obs.NewRecorder(nil), cap: &capture{}}
}

func (t *tracer) spans() *spanLog {
	if t == nil {
		return nil
	}
	return t.log
}

func (t *tracer) recorder() *obs.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracer) capture() *capture {
	if t == nil {
		return nil
	}
	return t.cap
}

// capture keeps the last real inputs the scheduler seam saw during a traced
// day; the probes replay the layers' public functions on them afterwards.
type capture struct {
	mu       sync.Mutex
	sys      *objective.System
	decision eva.Decision
	decided  bool
	frames   int // frames the wire's agents reported
}

func (c *capture) saw(sys *objective.System) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sys = sys
	c.mu.Unlock()
}

func (c *capture) returned(sys *objective.System, d eva.Decision) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sys, c.decision, c.decided = sys, d, true
	c.mu.Unlock()
}

func (c *capture) addFrames(n int) {
	c.mu.Lock()
	c.frames += n
	c.mu.Unlock()
}

// tracedShare is the part of --seconds the alternating untraced/traced days
// take; the rest is left to the probes.
const tracedShare = 0.6

// tracedPass produces the per-layer metrics. It alternates untraced and
// traced runs of one day (same seed, so counts repeat and the two sides are
// comparable), harvests the recorder and the bench-side spans, then probes
// the layers on the captured inputs.
func tracedPass(w *workload, seed uint64, p plan) (result, []string) {
	tr := newTracer()
	p.seconds *= tracedShare
	p.minReplans = 0
	p.minLaps = 2 * p.tracedPairs
	l := measure(w, seed, p,
		func(int) int { return 0 },
		func(i int) *tracer {
			if i%2 == 1 {
				return tr
			}
			return nil
		})

	var on, off passTotals
	for i, d := range l.days {
		if i%2 == 1 {
			on.add(d)
		} else {
			off.add(d)
		}
	}
	m := layerMetrics(w, tr, on, off)
	for name, v := range probe(w, seed, tr.cap) {
		m[name] = v
	}

	var notes []string
	notes = append(notes, fmt.Sprintf("%d traced and %d untraced days of %d epochs", on.days, off.days, p.epochs))
	if gap := m["runtime.attribution_gap_pct"].Value; gap >= 5 || gap < -5 {
		l.fail("%s: the program's epoch spans and the bench's epoch boundaries disagree by %.2f%%", w.Name, gap)
	}
	if err := writeSpans(w.Name, tr.log); err != nil {
		notes = append(notes, "spans not written: "+err.Error())
	}
	notes = append(notes, layerTable(tr, on)...)
	for _, prob := range l.problem {
		notes = append(notes, "INCORRECT: "+prob)
	}

	out := make(map[string]metric, len(perLayer))
	for _, def := range perLayer {
		v := m[def.Name]
		out[def.Name] = metric{Value: v.Value, Unit: def.Unit}
	}
	attempted, failed := on.attempted+off.attempted, on.failed+off.failed
	return result{Correct: len(l.problem) == 0, Attempted: attempted, Failed: failed, Metrics: out}, notes
}

// passTotals sums the days of one side of the traced pass.
type passTotals struct {
	days, epochs, attempted, failed int
	wallS, epochMS                  float64
}

func (t *passTotals) add(d dayResult) {
	t.days++
	t.epochs += len(d.EpochMS)
	t.attempted += d.Epochs
	t.failed += d.Failed
	t.wallS += d.WallS
	t.epochMS += sum(d.EpochMS)
}

// writeSpans writes the bench-side spans as JSON lines under outDir.
func writeSpans(name string, log *spanLog) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range log.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
