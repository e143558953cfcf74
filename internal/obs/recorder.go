package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one line of the JSONL stream a Recorder emits. T is seconds
// since the recorder started, measured on the monotonic clock; spans carry
// their duration in DurSec. Trace/Span/Parent are the causal-trace IDs
// (see trace.go); they are 0 — and omitted from the JSON — for events
// recorded outside any trace context.
type Event struct {
	T      float64      `json:"t"`
	Kind   string       `json:"kind"` // "span", "event", or "ledger"
	Name   string       `json:"name"`
	DurSec float64      `json:"dur_s,omitempty"`
	Trace  uint64       `json:"trace,omitempty"`
	Span   uint64       `json:"span,omitempty"`
	Parent uint64       `json:"parent,omitempty"`
	Fields Fields       `json:"fields,omitempty"`
	Ledger *EpochLedger `json:"ledger,omitempty"` // kind "ledger" only
}

// Fields is an event's numeric-annotation map. It marshals its keys in
// sorted order, so two runs that record the same values produce
// byte-identical JSONL — plain map marshaling already sorts keys, but the
// named type pins that contract (and golden tests hold it) independent of
// encoding/json internals.
type Fields map[string]float64

// MarshalJSON writes the map with keys in ascending order.
func (f Fields) MarshalJSON() ([]byte, error) {
	if f == nil {
		return []byte("null"), nil
	}
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		b.Write(kb)
		b.WriteByte(':')
		v := f[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("obs: field %q is %v, not representable in JSON", k, v)
		}
		b.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Field is one numeric annotation on an event or span.
type Field struct {
	Key string
	Val float64
}

// F builds a Field; it keeps call sites short.
func F(key string, val float64) Field { return Field{Key: key, Val: val} }

// Bool is the numeric value of a boolean field: 1 for true, 0 for false.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Recorder emits a replayable JSONL event stream and aggregates span
// durations as it goes. It also owns a metric Registry so instrumented
// code reaches both surfaces through one handle. All methods are safe for
// concurrent use and no-ops on a nil receiver, so disabled telemetry costs
// a nil check and nothing else.
type Recorder struct {
	mu    sync.Mutex
	w     *bufio.Writer // nil: events are aggregated but not written
	start time.Time
	reg   *Registry
	spans map[string]*SpanStat
	durs  map[string]*Histogram // per-name span-duration histograms
	err   error                 // first write error, surfaced by Close
	ids   atomic.Uint64         // trace/span ID allocator (IDs start at 1)
}

// NewRecorder returns a recorder writing JSONL events to w. A nil w keeps
// span aggregation and the registry live without writing anything — useful
// when only the metric/summary surfaces are wanted.
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{
		start: time.Now(), reg: NewRegistry(),
		spans: map[string]*SpanStat{}, durs: map[string]*Histogram{},
	}
	if w != nil {
		r.w = bufio.NewWriter(w)
	}
	return r
}

// Registry returns the recorder's metric registry (nil on a nil receiver,
// which in turn yields nil no-op metric handles).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Event emits one instantaneous event with optional numeric fields.
func (r *Recorder) Event(name string, fields ...Field) {
	if r == nil {
		return
	}
	r.emit(Event{
		T:      time.Since(r.start).Seconds(),
		Kind:   "event",
		Name:   name,
		Fields: fieldMap(fields),
	})
}

// Span is an in-flight phase measurement started by StartSpanCtx. End emits the span event; Field attaches numeric
// annotations before that. All methods are no-ops on a nil receiver.
type Span struct {
	r      *Recorder
	name   string
	t0     time.Time
	fields []Field
	trace  uint64 // trace ID shared with every span under one root
	id     uint64 // this span's ID, unique within the recorder
	parent uint64 // enclosing span's ID, 0 for roots
}

// Field attaches one numeric annotation to the span.
func (sp *Span) Field(key string, val float64) {
	if sp == nil {
		return
	}
	sp.fields = append(sp.fields, Field{Key: key, Val: val})
}

// End emits the span event, folds its duration into the recorder's
// per-name aggregation, and returns the duration in seconds (0 on a nil
// receiver) so callers can feed it into histograms without re-timing.
func (sp *Span) End() float64 {
	if sp == nil {
		return 0
	}
	dur := time.Since(sp.t0).Seconds()
	r := sp.r
	r.emit(Event{
		T:      sp.t0.Sub(r.start).Seconds(),
		Kind:   "span",
		Name:   sp.name,
		DurSec: dur,
		Trace:  sp.trace,
		Span:   sp.id,
		Parent: sp.parent,
		Fields: fieldMap(sp.fields),
	})
	r.mu.Lock()
	st, ok := r.spans[sp.name]
	if !ok {
		st = &SpanStat{Name: sp.name, Min: math.Inf(1)}
		r.spans[sp.name] = st
	}
	st.observe(dur)
	h, ok := r.durs[sp.name]
	if !ok {
		h = newHistogram(DefBuckets)
		r.durs[sp.name] = h
	}
	r.mu.Unlock()
	h.Observe(dur)
	return dur
}

// SpanHistogram returns the duration histogram of all completed spans of
// one name (an empty snapshot when the name never completed, or on a nil
// receiver). Quantiles derive from it via HistogramSnapshot.Quantile.
func (r *Recorder) SpanHistogram(name string) HistogramSnapshot {
	if r == nil {
		return HistogramSnapshot{}
	}
	r.mu.Lock()
	h := r.durs[name]
	r.mu.Unlock()
	return h.Snapshot()
}

func fieldMap(fields []Field) Fields {
	if len(fields) == 0 {
		return nil
	}
	m := make(Fields, len(fields))
	for _, f := range fields {
		m[f.Key] = f.Val
	}
	return m
}

func (r *Recorder) emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		b = append(b, '\n')
		_, err = r.w.Write(b)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// Close flushes the JSONL sink and returns the first write error, if any.
// It does not close the underlying writer. Safe on a nil receiver.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		if err := r.w.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// SpanStat aggregates every completed span of one name.
type SpanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Min   float64 `json:"min_s"`
	Max   float64 `json:"max_s"`
}

func (st *SpanStat) observe(dur float64) {
	st.Count++
	st.Total += dur
	st.Min = math.Min(st.Min, dur)
	st.Max = math.Max(st.Max, dur)
}

// Mean returns the mean span duration.
func (st SpanStat) Mean() float64 {
	if st.Count == 0 {
		return 0
	}
	return st.Total / float64(st.Count)
}

// SpanSummary returns the per-name span aggregation, sorted by descending
// total time. Safe on a nil receiver (returns nil).
func (r *Recorder) SpanSummary() []SpanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SpanStat, 0, len(r.spans))
	for _, st := range r.spans {
		out = append(out, *st)
	}
	r.mu.Unlock()
	sortSpanStats(out)
	return out
}

func sortSpanStats(stats []SpanStat) {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Total != stats[j].Total {
			return stats[i].Total > stats[j].Total
		}
		return stats[i].Name < stats[j].Name
	})
}

// ReadEvents parses a JSONL event stream back into events. Blank lines are
// skipped; a malformed line is an error carrying its line number.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SummarizeSpans aggregates the span events of a parsed stream into
// per-name statistics, sorted by descending total time.
func SummarizeSpans(events []Event) []SpanStat {
	agg := map[string]*SpanStat{}
	for _, ev := range events {
		if ev.Kind != "span" {
			continue
		}
		st, ok := agg[ev.Name]
		if !ok {
			st = &SpanStat{Name: ev.Name, Min: math.Inf(1)}
			agg[ev.Name] = st
		}
		st.observe(ev.DurSec)
	}
	out := make([]SpanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sortSpanStats(out)
	return out
}

// WriteSpanTable renders span statistics as an aligned text table (the
// pamo-trace -events-summary output).
func WriteSpanTable(w io.Writer, stats []SpanStat) {
	fmt.Fprintf(w, "%-24s %7s %12s %12s %12s %12s\n",
		"span", "count", "total_s", "mean_s", "min_s", "max_s")
	for _, st := range stats {
		fmt.Fprintf(w, "%-24s %7d %12.4f %12.4f %12.4f %12.4f\n",
			st.Name, st.Count, st.Total, st.Mean(), st.Min, st.Max)
	}
}
