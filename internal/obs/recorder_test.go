package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJSONLRoundTrip emits a stream of spans and events, reads it back,
// and checks both the parsed events and the summary aggregation.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)

	sp := rec.StartSpan("profiling", F("clips", 8))
	time.Sleep(time.Millisecond)
	sp.Field("profiles", 208)
	sp.End()
	rec.Event("iteration", F("iter", 1), F("best_benefit", 0.42))
	sp2 := rec.StartSpan("solution")
	sp2.End()
	sp3 := rec.StartSpan("solution")
	sp3.End()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	if events[0].Kind != "span" || events[0].Name != "profiling" {
		t.Fatalf("event 0: %+v", events[0])
	}
	if events[0].Fields["clips"] != 8 || events[0].Fields["profiles"] != 208 {
		t.Fatalf("span fields: %+v", events[0].Fields)
	}
	if events[0].DurSec < 0.001 {
		t.Fatalf("span duration %v too small", events[0].DurSec)
	}
	if events[1].Kind != "event" || events[1].Fields["best_benefit"] != 0.42 {
		t.Fatalf("event 1: %+v", events[1])
	}

	// File-side and recorder-side aggregations must agree.
	fromFile := SummarizeSpans(events)
	fromRec := rec.SpanSummary()
	if len(fromFile) != 2 || len(fromRec) != 2 {
		t.Fatalf("summaries: file %d, rec %d", len(fromFile), len(fromRec))
	}
	for i := range fromFile {
		if fromFile[i] != fromRec[i] {
			t.Fatalf("summary mismatch at %d: %+v vs %+v", i, fromFile[i], fromRec[i])
		}
	}
	byName := map[string]SpanStat{}
	for _, st := range fromFile {
		byName[st.Name] = st
	}
	if byName["solution"].Count != 2 || byName["profiling"].Count != 1 {
		t.Fatalf("counts: %+v", byName)
	}

	var table strings.Builder
	WriteSpanTable(&table, fromFile)
	for _, want := range []string{"span", "profiling", "solution", "total_s"} {
		if !strings.Contains(table.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, table.String())
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"t\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

// TestRecorderConcurrent drives spans, events, and metrics from many
// goroutines; -race validates the locking, and the output must stay one
// valid JSON object per line.
func TestRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := rec.StartSpan("work", F("worker", float64(w)))
				rec.Event("tick", F("i", float64(i)))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents on concurrent stream: %v", err)
	}
	if len(events) != 2*workers*per {
		t.Fatalf("got %d events, want %d", len(events), 2*workers*per)
	}
	sum := rec.SpanSummary()
	if len(sum) != 1 || sum[0].Count != workers*per {
		t.Fatalf("span summary: %+v", sum)
	}
}

// TestNilWriterRecorder checks the metrics-only mode: no sink, but spans
// still aggregate and the registry is live.
func TestNilWriterRecorder(t *testing.T) {
	rec := NewRecorder(nil)
	sp := rec.StartSpan("phase")
	sp.End()
	rec.Registry().Counter("n").Inc()
	if got := rec.SpanSummary(); len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("span summary: %+v", got)
	}
	if rec.Registry().Counter("n").Value() != 1 {
		t.Fatal("registry not live without a sink")
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestNilRecorderSafe walks the full disabled surface.
func TestNilRecorderSafe(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpan("x", F("a", 1))
	sp.Field("b", 2)
	sp.End()
	rec.Event("y")
	if rec.Registry() != nil {
		t.Fatal("nil recorder must yield nil registry")
	}
	if rec.SpanSummary() != nil {
		t.Fatal("nil recorder must yield nil summary")
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestNilPathAllocatesZero asserts the disabled hot path allocates nothing
// — the contract that lets instrumentation stay unconditionally in place.
func TestNilPathAllocatesZero(t *testing.T) {
	var rec *Recorder
	reg := rec.Registry()
	c := reg.Counter("c")
	h := reg.Histogram("h", DefBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		sp := rec.StartSpan("phase", F("k", 1))
		sp.Field("k2", 2)
		sp.End()
		rec.Event("ev", F("a", 1), F("b", 2))
		c.Inc()
		reg.Gauge("g").Set(3)
		h.Observe(0.01)
	})
	if allocs != 0 {
		t.Fatalf("nil telemetry path allocates %v per op, want 0", allocs)
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// StartSpan begins a named span on the monotonic clock. The span is the
// root of a fresh trace; use StartSpanCtx to nest under an existing one.
func (r *Recorder) StartSpan(name string, fields ...Field) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{r: r, name: name, t0: time.Now(), id: r.ids.Add(1), trace: r.ids.Add(1)}
	sp.fields = append(sp.fields, fields...)
	return sp
}
