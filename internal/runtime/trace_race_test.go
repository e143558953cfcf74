package runtime

import (
	"bytes"
	"context"
	goruntime "runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestTracedShardedRunWellFormed drives the sharded control plane (8 cells,
// GOMAXPROCS=8, faults mid-run) with a live recorder and then audits the
// whole emitted stream:
//
//   - span parentage is well-formed: every nonzero parent link resolves to
//     an emitted span, parents have smaller IDs than children (so links are
//     acyclic), and every parent chain reaches a root;
//   - events and ledgers attribute only to emitted spans;
//   - every epoch ledger's buckets sum to planned − realized with exact
//     float equality.
//
// Under -race this doubles as the concurrency audit of the trace plane:
// per-cell decides, per-cell placements, and per-server DES spans all emit
// concurrently into one recorder.
func TestTracedShardedRunWellFormed(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(8))

	sys := testSys(16, 8)
	sc := &fault.Scenario{Name: "race", Events: []fault.Event{
		{Epoch: 2, Action: fault.ServerDown, Target: 3},
		{Epoch: 5, Action: fault.ServerUp, Target: 3},
	}}
	inj, err := fault.NewInjector(sc, sys.N(), sys.M())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	c := controller(sys, zeroJitterScheduler(), 3)
	c.Opt.Shards = 8
	c.Faults = inj
	c.Obs = rec

	const epochs = 8
	if _, err := c.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}

	spans := map[uint64]obs.Event{}
	for _, ev := range evs {
		if ev.Kind != "span" {
			continue
		}
		if ev.Span == 0 {
			t.Fatalf("span with zero ID: %+v", ev)
		}
		if _, dup := spans[ev.Span]; dup {
			t.Fatalf("duplicate span ID %d", ev.Span)
		}
		spans[ev.Span] = ev
	}
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	roots := 0
	for id, ev := range spans {
		if ev.Parent == 0 {
			roots++
			continue
		}
		if ev.Parent >= id {
			t.Fatalf("span %d has parent %d >= its own ID", id, ev.Parent)
		}
		// Walk to the root; the ID ordering bounds the walk.
		seen := 0
		for cur := ev.Parent; cur != 0; seen++ {
			p, ok := spans[cur]
			if !ok {
				t.Fatalf("span %d's ancestor %d was never emitted", id, cur)
			}
			if p.Trace != ev.Trace {
				t.Fatalf("span %d (trace %d) chains into trace %d", id, ev.Trace, p.Trace)
			}
			if seen > len(spans) {
				t.Fatalf("span %d's parent chain does not terminate", id)
			}
			cur = p.Parent
		}
	}
	if roots == 0 {
		t.Fatal("no root spans")
	}

	ledgers := 0
	for _, ev := range evs {
		if ev.Parent != 0 && ev.Kind != "span" {
			if _, ok := spans[ev.Parent]; !ok {
				t.Fatalf("%s %q attributed to unknown span %d", ev.Kind, ev.Name, ev.Parent)
			}
		}
		if ev.Kind != "ledger" {
			continue
		}
		ledgers++
		l := ev.Ledger
		if l == nil {
			t.Fatalf("ledger event without payload: %+v", ev)
		}
		if sum := l.ShedLoss + l.DriftLoss + l.FaultLoss; sum != l.Planned-l.Realized {
			t.Fatalf("epoch %d ledger inexact: buckets %v vs gap %v", l.Epoch, sum, l.Planned-l.Realized)
		}
	}
	if ledgers != epochs {
		t.Fatalf("ledgers %d, want %d", ledgers, epochs)
	}

	// The sharded decide path must actually have traced: cells and rounds.
	names := map[string]int{}
	for _, ev := range spans {
		names[ev.Name]++
	}
	for _, want := range []string{"epoch", "decide_attempt", "decide_cell", "shard_plan", "shard_round", "shard_cell", "des"} {
		if names[want] == 0 {
			t.Fatalf("no %q spans in a sharded traced run (have %v)", want, names)
		}
	}
}
