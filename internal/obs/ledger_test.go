package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// TestLedgerCloseExact: Close must make SumBuckets equal Gap bit-for-bit,
// including on adversarial magnitudes where one algebraic residual is not
// enough under non-associative float addition.
func TestLedgerCloseExact(t *testing.T) {
	cases := []EpochLedger{
		{Planned: 1, Realized: 0.25, ShedLoss: 0.5, DriftLoss: 0.1, FaultLoss: 0.2},
		{Planned: 0.8366401241, Realized: 0.8366401241},
		{Planned: 1e17, Realized: 3, ShedLoss: 1, DriftLoss: 0.1, FaultLoss: 7},
		{Planned: 1, Realized: 1 + 1e-16, DriftLoss: -1e-16},
		{Planned: -0.5, Realized: 0.25, ShedLoss: 0.125},
	}
	for i, l := range cases {
		l.Close()
		if !l.CheckExact() {
			t.Fatalf("case %d not exact: sum=%v gap=%v", i, l.SumBuckets(), l.Gap())
		}
	}
}

// TestLedgerCloseNonFinite: NaN/Inf gaps are left alone and reported by
// CheckExact instead of looping or poisoning the buckets.
func TestLedgerCloseNonFinite(t *testing.T) {
	l := EpochLedger{Planned: math.NaN(), Realized: 1}
	l.Close()
	if l.CheckExact() {
		t.Fatal("NaN ledger claims exactness")
	}
	if l.DriftLoss != 0 {
		t.Fatalf("NaN gap perturbed DriftLoss: %v", l.DriftLoss)
	}
	l = EpochLedger{Planned: math.Inf(1), Realized: 1}
	l.Close()
	if l.DriftLoss != 0 {
		t.Fatalf("Inf gap perturbed DriftLoss: %v", l.DriftLoss)
	}
}

// TestRecordLedgerRoundTrip: the ledger survives the JSONL stream intact,
// exactly once, and is attributed to the span in ctx.
func TestRecordLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	ctx, sp := rec.StartSpanCtx(context.Background(), "epoch")
	led := EpochLedger{
		Epoch: 3, Planned: 0.9, Realized: 0.7,
		ShedLoss: 0.15, FaultLoss: 0.05,
		FellBack:   true,
		ShedVideos: []int{4, 7}, ServersDown: []int{1},
	}
	led.Close()
	rec.RecordLedger(ctx, led)
	sp.End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got *Event
	for i := range evs {
		if evs[i].Kind == "ledger" {
			if got != nil {
				t.Fatal("ledger emitted twice")
			}
			got = &evs[i]
		}
	}
	if got == nil {
		t.Fatal("no ledger event in stream")
	}
	if got.Name != "epoch_ledger" || got.Parent != sp.ID() || got.Trace != sp.TraceID() {
		t.Fatalf("ledger attribution wrong: %+v", got)
	}
	l := got.Ledger
	if l == nil || l.Epoch != 3 || l.Planned != 0.9 || !l.FellBack ||
		len(l.ShedVideos) != 2 {
		t.Fatalf("ledger payload mangled: %+v", l)
	}
	if !l.CheckExact() {
		t.Fatalf("round-tripped ledger inexact: sum=%v gap=%v", l.SumBuckets(), l.Gap())
	}
}

// TestRecordLedgerNilRecorder: the disabled path is inert.
func TestRecordLedgerNilRecorder(t *testing.T) {
	var rec *Recorder
	rec.RecordLedger(context.Background(), EpochLedger{Epoch: 1})
}

// TestWriteLedgerTable: the table renders one row per epoch and flags an
// inexact ledger.
func TestWriteLedgerTable(t *testing.T) {
	good := EpochLedger{Epoch: 0, Planned: 1, Realized: 0.75, ShedLoss: 0.25}
	good.Close()
	bad := EpochLedger{Epoch: 1, Planned: 1, Realized: 0.5, ShedLoss: 0.1}
	var sb strings.Builder
	WriteLedgerTable(&sb, []EpochLedger{good, bad})
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "ok") {
		t.Fatalf("exact row not marked ok: %s", lines[1])
	}
	if !strings.Contains(lines[2], "FAIL") {
		t.Fatalf("inexact row not flagged: %s", lines[2])
	}
}
