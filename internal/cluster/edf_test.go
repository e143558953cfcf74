package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEDFMatchesFIFOWithoutContention(t *testing.T) {
	streams := []StreamSpec{{Period: 0.2, Proc: 0.05, Bits: 1e5}}
	srv := Server{Uplink: 1e7}
	fifo := SimulateServer(streams, srv, 10)
	edf := SimulateServerEDF(streams, srv, 10)
	if fifo.PerStream[0].Frames != edf.PerStream[0].Frames {
		t.Fatalf("frame counts differ: %d vs %d", fifo.PerStream[0].Frames, edf.PerStream[0].Frames)
	}
	if math.Abs(fifo.PerStream[0].MeanLat-edf.PerStream[0].MeanLat) > 1e-9 {
		t.Fatalf("uncontended latencies differ: %v vs %v",
			fifo.PerStream[0].MeanLat, edf.PerStream[0].MeanLat)
	}
}

func TestEDFPrioritizesUrgentFrames(t *testing.T) {
	// A slow-period stream (long deadline) and a fast stream (short
	// deadline) arriving together: EDF serves the fast one first, FIFO
	// serves by arrival order (tie → lower stream index first).
	streams := []StreamSpec{
		{Period: 1.0, Proc: 0.05}, // stream 0: deadline +1.0
		{Period: 0.1, Proc: 0.05}, // stream 1: deadline +0.1
	}
	fifo := SimulateServer(streams, Server{}, 0.5)
	edf := SimulateServerEDF(streams, Server{}, 0.5)
	// Under FIFO the t=0 tie goes to stream 0; under EDF to stream 1.
	if fifo.Frames[0].Stream != 0 {
		t.Fatalf("FIFO tie-break changed: first served %d", fifo.Frames[0].Stream)
	}
	firstEDF := -1
	bestStart := math.Inf(1)
	for _, f := range edf.Frames {
		if f.Start < bestStart {
			bestStart = f.Start
			firstEDF = f.Stream
		}
	}
	if firstEDF != 1 {
		t.Fatalf("EDF did not serve the urgent stream first (got %d)", firstEDF)
	}
	// The fast stream's worst latency improves (or at least never worsens)
	// under EDF.
	if edf.PerStream[1].MaxLat > fifo.PerStream[1].MaxLat+1e-12 {
		t.Fatalf("EDF worsened the urgent stream: %v vs %v",
			edf.PerStream[1].MaxLat, fifo.PerStream[1].MaxLat)
	}
}

func TestEDFCannotRemoveOverloadJitter(t *testing.T) {
	// The motivating point: with Σ p·s > 1 no queueing policy helps —
	// latency still accumulates under EDF, so jitter control must happen
	// at placement time (the paper's Const2), not in the queue.
	streams := []StreamSpec{
		{Period: 0.2, Proc: 0.1},
		{Period: 0.1, Proc: 0.08},
	}
	res := SimulateServerEDF(streams, Server{}, 20)
	if res.MaxWait < 1 {
		t.Fatalf("EDF hid the overload: max wait %v", res.MaxWait)
	}
	if res.MaxJitter <= JitterEps {
		t.Fatalf("EDF produced zero jitter under overload: %v", res.MaxJitter)
	}
}

func TestEDFZeroJitterUnderConst2(t *testing.T) {
	// Conversely, a Const2-satisfying group with Theorem 1 offsets is
	// jitter-free under EDF too (no frame ever waits, so the policy is
	// irrelevant) — the sufficient condition is policy-agnostic.
	streams := []StreamSpec{
		{Period: 0.2, Proc: 0.04, Bits: 8e4},
		{Period: 0.4, Proc: 0.06, Bits: 4e4},
	}
	srv := Server{Uplink: 1e7}
	res := SimulateServerEDF(ZeroJitterOffsetsOn(streams, srv), srv, 30)
	if res.MaxJitter > JitterEps || res.MaxWait > JitterEps {
		t.Fatalf("jitter %v wait %v", res.MaxJitter, res.MaxWait)
	}
}

// Property: EDF and FIFO serve exactly the same set of frames with the
// same total busy time; only the order differs.
func TestEDFConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := newRng(seed)
		k := 1 + int(seed%3)
		var streams []StreamSpec
		for i := 0; i < k; i++ {
			streams = append(streams, StreamSpec{
				Period: []float64{0.1, 0.2, 0.5}[rng.IntN(3)],
				Proc:   0.01 + rng.Float64()*0.08,
				Offset: rng.Float64() * 0.1,
			})
		}
		fifo := SimulateServer(streams, Server{}, 5)
		edf := SimulateServerEDF(streams, Server{}, 5)
		if len(fifo.Frames) != len(edf.Frames) {
			return false
		}
		return math.Abs(fifo.Utilization-edf.Utilization) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulateServerEDF(b *testing.B) {
	streams := []StreamSpec{
		{Period: 1.0 / 30, Proc: 0.01, Bits: 1e5},
		{Period: 1.0 / 15, Proc: 0.02, Bits: 2e5},
		{Period: 1.0 / 10, Proc: 0.03, Bits: 3e5},
	}
	srv := Server{Uplink: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulateServerEDF(streams, srv, 60)
	}
}
