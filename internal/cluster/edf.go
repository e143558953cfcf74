package cluster

import (
	"cmp"
	"container/heap"
	"math"
	"slices"
)

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

	return summarize(frames, streams, horizon, busy)
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
