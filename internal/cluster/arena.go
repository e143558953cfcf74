package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Arena holds the reusable simulation buffers of one server's discrete-event
// run: the FrameRecord log, the per-stream merge cursors, transmission
// delays, and the per-stream summary slots. Reusing one arena across epochs
// turns the simulator's per-epoch allocation (dominated by the frame log)
// into zero steady-state allocations once the buffers have grown to the
// episode's frame volume.
//
// Ownership rules (see DESIGN.md "Scaling"): an Arena is single-goroutine —
// the fault-tolerant runtime keeps one per server worker. The Result
// returned by Arena.SimulateServer aliases the arena's buffers and is valid
// only until the next call on the same arena; callers that retain frames or
// stats across epochs must copy them out.
type Arena struct {
	tx        []float64
	next      []int
	frames    []FrameRecord
	per       []StreamStats
	completed []int
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

func (a *Arena) growStreams(n int) {
	if cap(a.tx) < n {
		a.tx = make([]float64, n)
		a.next = make([]int, n)
		a.per = make([]StreamStats, n)
		a.completed = make([]int, n)
	}
	a.tx = a.tx[:n]
	a.next = a.next[:n]
	a.per = a.per[:n]
	a.completed = a.completed[:n]
}

// SimulateServer simulates one server into the arena's buffers (see the
// package-level SimulateServer for the service model, and the ownership
// rules on Arena for how long the result stays valid).
func (a *Arena) SimulateServer(streams []StreamSpec, srv Server, horizon float64) Result {
	if horizon <= 0 {
		panic(fmt.Sprintf("cluster: non-positive horizon %v", horizon))
	}
	a.growStreams(len(streams))
	tx := a.tx
	total := 0
	for si, s := range streams {
		if s.Period <= 0 {
			panic(fmt.Sprintf("cluster: stream %d has period %v", si, s.Period))
		}
		tx[si] = 0
		if srv.Uplink > 0 {
			tx[si] = s.Bits / srv.Uplink
		}
		if n := math.Ceil((horizon - s.Offset) / s.Period); n > 0 {
			total += int(n)
		}
	}
	// Each stream emits frames in increasing arrival order (its uplink delay
	// is constant), so a k-way merge produces the global FIFO arrival order
	// directly, with no sort. Arrival ties break toward the lower stream
	// index, matching a deterministic NIC delivering interleaved packets.
	if cap(a.frames) < total {
		a.frames = make([]FrameRecord, 0, total)
	}
	frames := a.frames[:0]
	next := a.next
	for si := range next {
		next[si] = 0
	}
	for {
		best, bestArr := -1, math.Inf(1)
		for si := range streams {
			cap := streams[si].Offset + float64(next[si])*streams[si].Period
			if cap >= horizon {
				continue
			}
			if arr := cap + tx[si]; arr < bestArr {
				best, bestArr = si, arr
			}
		}
		if best < 0 {
			break
		}
		frames = append(frames, FrameRecord{
			Stream:  best,
			Seq:     next[best],
			Capture: streams[best].Offset + float64(next[best])*streams[best].Period,
			Arrive:  bestArr,
		})
		next[best]++
	}
	a.frames = frames

	// Service time scales with the server's speed class. At the
	// homogeneous default (speed 1) the division is an exact identity, so
	// golden traces are bit-identical.
	spd := srv.Speed()
	free := 0.0
	busy := 0.0
	for i := range frames {
		f := &frames[i]
		f.Start = math.Max(f.Arrive, free)
		proc := streams[f.Stream].Proc / spd
		f.Finish = f.Start + proc
		free = f.Finish
		busy += proc
	}
	return a.summarizeInto(frames, streams, horizon, busy)
}

// summarizeInto aggregates simulated frames into per-stream statistics,
// written into the arena's slots.
func (a *Arena) summarizeInto(frames []FrameRecord, streams []StreamSpec, horizon, busy float64) Result {
	res := Result{Frames: frames, PerStream: a.per}
	completed := a.completed
	for si := range streams {
		a.per[si] = StreamStats{MinLat: math.Inf(1)}
		completed[si] = 0
	}
	for _, f := range frames {
		st := &res.PerStream[f.Stream]
		st.Frames++
		l := f.Latency()
		st.MeanLat += l
		st.MinLat = math.Min(st.MinLat, l)
		st.MaxLat = math.Max(st.MaxLat, l)
		st.MaxWait = math.Max(st.MaxWait, f.Wait())
		if f.Finish <= horizon {
			completed[f.Stream]++
		}
	}
	for si := range res.PerStream {
		st := &res.PerStream[si]
		if st.Frames > 0 {
			st.MeanLat /= float64(st.Frames)
			st.Jitter = st.MaxLat - st.MinLat
			st.Throughput = float64(completed[si]) / horizon
		} else {
			st.MinLat = 0
		}
		res.MaxJitter = math.Max(res.MaxJitter, st.Jitter)
		res.MaxWait = math.Max(res.MaxWait, st.MaxWait)
	}
	res.Utilization = busy / horizon
	return res
}

// SimulateServerRecordedCtx is SimulateServer with telemetry: after the
// simulation it emits one "cluster.server" event (server index, utilization,
// max jitter, max wait, frame count) on rec, attributed to the span carried
// by ctx (normally the per-server DES span) so trace exporters can place it
// on the right lane, and feeds the cluster_server_utilization and
// cluster_server_jitter_seconds histograms of rec's registry. A nil rec
// makes it exactly SimulateServer. Safe to call from concurrent per-server
// goroutines, one arena each.
func (a *Arena) SimulateServerRecordedCtx(ctx context.Context, streams []StreamSpec, srv Server, horizon float64, rec *obs.Recorder, server int) Result {
	res := a.SimulateServer(streams, srv, horizon)
	if rec == nil {
		return res
	}
	reg := rec.Registry()
	reg.Histogram("cluster_server_utilization", obs.UnitBuckets).Observe(res.Utilization)
	reg.Histogram("cluster_server_jitter_seconds", obs.DefBuckets).Observe(res.MaxJitter)
	rec.EventCtx(ctx, "cluster.server",
		obs.F("server", float64(server)),
		obs.F("streams", float64(len(streams))),
		obs.F("frames", float64(len(res.Frames))),
		obs.F("utilization", res.Utilization),
		obs.F("max_jitter", res.MaxJitter),
		obs.F("max_wait", res.MaxWait))
	return res
}

// ZeroJitterOffsetsInPlaceOn is ZeroJitterOffsetsOn writing directly into
// streams, allocating nothing: the slot train accumulates the server's
// effective service times p_i/speed.
func ZeroJitterOffsetsInPlaceOn(streams []StreamSpec, srv Server) {
	uplink := srv.Uplink
	spd := srv.Speed()
	var maxTx float64
	for _, s := range streams {
		if uplink > 0 {
			maxTx = math.Max(maxTx, s.Bits/uplink)
		}
	}
	acc := 0.0
	for i := range streams {
		tx := 0.0
		if uplink > 0 {
			tx = streams[i].Bits / uplink
		}
		streams[i].Offset = maxTx + acc - tx
		acc += streams[i].Proc / spd
	}
}
