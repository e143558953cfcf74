package cluster

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
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

// SimulateServerEDF runs the same workload as SimulateServer but serves
// frames in non-preemptive earliest-deadline-first order, each frame's
// deadline being its capture time plus its stream's period. The periodic
// real-time scheduling literature the paper cites (Jeffay et al., Minaeva
// & Hanzálek) uses EDF as the classic dynamic-priority policy; comparing
// it against FIFO shows why PaMO's problem needs *placement-time* jitter
// control rather than a smarter queue: EDF reorders waiting frames but
// cannot remove contention.
func SimulateServerEDF(streams []StreamSpec, srv Server, horizon float64) Result {
	if horizon <= 0 {
		panic("cluster: non-positive horizon")
	}
	var frames []FrameRecord
	deadlines := map[int]float64{} // frame index -> absolute deadline
	for si, s := range streams {
		if s.Period <= 0 {
			panic("cluster: non-positive period")
		}
		tx := 0.0
		if srv.Uplink > 0 {
			tx = s.Bits / srv.Uplink
		}
		for k := 0; ; k++ {
			cap := s.Offset + float64(k)*s.Period
			if cap >= horizon {
				break
			}
			frames = append(frames, FrameRecord{
				Stream: si, Seq: k, Capture: cap, Arrive: cap + tx,
			})
			deadlines[len(frames)-1] = cap + s.Period
		}
	}
	order := make([]int, len(frames))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		fa, fb := frames[a], frames[b]
		if fa.Arrive != fb.Arrive {
			return cmp.Compare(fa.Arrive, fb.Arrive)
		}
		if fa.Stream != fb.Stream {
			return fa.Stream - fb.Stream
		}
		return fa.Seq - fb.Seq
	})

	// Event loop: pop the released frame with the earliest deadline.
	pq := &edfQueue{frames: frames, deadlines: deadlines}
	clock := 0.0
	busy := 0.0
	next := 0
	served := 0
	for served < len(frames) {
		// Release everything that has arrived by the clock.
		for next < len(order) && frames[order[next]].Arrive <= clock+1e-15 {
			heap.Push(pq, order[next])
			next++
		}
		if pq.Len() == 0 {
			// Idle until the next arrival.
			clock = frames[order[next]].Arrive
			continue
		}
		fi := heap.Pop(pq).(int)
		f := &frames[fi]
		f.Start = math.Max(clock, f.Arrive)
		f.Finish = f.Start + streams[f.Stream].Proc
		clock = f.Finish
		busy += streams[f.Stream].Proc
		served++
	}

	return oracleSummarize(frames, streams, horizon, busy)
}

// edfQueue is a min-heap of frame indices keyed by deadline.
type edfQueue struct {
	frames    []FrameRecord
	deadlines map[int]float64
	items     []int
}

func (q *edfQueue) Len() int { return len(q.items) }
func (q *edfQueue) Less(a, b int) bool {
	da, db := q.deadlines[q.items[a]], q.deadlines[q.items[b]]
	if da != db {
		return da < db
	}
	return q.items[a] < q.items[b]
}
func (q *edfQueue) Swap(a, b int) { q.items[a], q.items[b] = q.items[b], q.items[a] }
func (q *edfQueue) Push(x any)    { q.items = append(q.items, x.(int)) }
func (q *edfQueue) Pop() any {
	n := len(q.items)
	v := q.items[n-1]
	q.items = q.items[:n-1]
	return v
}
