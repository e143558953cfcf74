package cluster

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/obs"
)

// Arena holds the reusable buffers of one server's discrete-event run: a
// merge cursor per stream (its next frame's sequence number, capture
// instant, transmission delay and service time), the merge ring that orders
// the streams by their next arrival, and the per-stream summary slots. The
// arena path keeps no frame log: frames are served and summarized in the
// same pass that merges them, so a warm arena simulates without touching
// the heap.
//
// Ownership rules (see DESIGN.md "Scaling"): an Arena is single-goroutine —
// the fault-tolerant runtime keeps one per server worker. The Result
// returned by Arena.SimulateServer carries no frames (Result.Frames is nil)
// and its PerStream aliases the arena's slots, valid only until the next
// call on the same arena; callers that retain stats across epochs must copy
// them out. Frame logs come only from the package-level SimulateServer and
// SimulateCluster.
type Arena struct {
	cur       []cursor
	ring      []next // power-of-two length, at least one slot per stream
	per       []StreamStats
	completed []int
	sub       []StreamSpec // MeanLatency's per-server stream subset
}

// cursor is one stream's position in the k-way merge.
type cursor struct {
	seq     int     // sequence number of the next frame
	capture float64 // its capture instant
	tx      float64 // uplink transmission delay, constant per stream
	proc    float64 // service time on this server, Proc/speed
}

// next is one merge-ring entry: a stream and its next frame's arrival.
type next struct {
	arrive float64
	si     int
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

func (a *Arena) growStreams(n int) {
	if cap(a.cur) < n {
		a.cur = make([]cursor, n)
		a.per = make([]StreamStats, n)
		a.completed = make([]int, n)
	}
	a.cur = a.cur[:n]
	a.per = a.per[:n]
	a.completed = a.completed[:n]
	size := 1
	if n > 1 {
		size = 1 << bits.Len(uint(n-1))
	}
	if cap(a.ring) < size {
		a.ring = make([]next, size)
	}
	a.ring = a.ring[:size]
}

// SimulateServer simulates one server into the arena's buffers (see the
// package-level SimulateServer for the service model, and the ownership
// rules on Arena for how long the result stays valid). It records no
// frames; Result.LatSum and Result.FrameCount carry what callers used to
// fold out of the log.
func (a *Arena) SimulateServer(streams []StreamSpec, srv Server, horizon float64) Result {
	return a.simulate(streams, srv, horizon, false, 0)
}

// MeanLatency simulates the cluster like SimulateCluster and returns the
// frame-weighted mean end-to-end latency, bit-identical to
// MeanLatency(SimulateCluster(streams, servers, assign, horizon)) but
// without frame logs: one running latency sum is threaded through the
// servers in index order, so every frame's latency is added in the order
// the logs would fold it. A warm arena allocates nothing.
func (a *Arena) MeanLatency(streams []StreamSpec, servers []Server, assign Assignment, horizon float64) float64 {
	checkAssignment(streams, servers, assign)
	sum, n := 0.0, 0
	for j := range servers {
		a.sub = a.sub[:0]
		for i, s := range assign {
			if s == j {
				a.sub = append(a.sub, streams[i])
			}
		}
		res := a.simulate(a.sub, servers[j], horizon, false, sum)
		sum, n = res.LatSum, n+res.FrameCount
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// simulate is the FIFO simulator: one pass that merges the streams' frames
// in arrival order, serves each one and folds it into the summary. With
// record set it also logs every frame into a freshly allocated slice that
// the result owns. The result's LatSum continues the running sum latSum.
func (a *Arena) simulate(streams []StreamSpec, srv Server, horizon float64, record bool, latSum float64) Result {
	if horizon <= 0 {
		panic(fmt.Sprintf("cluster: non-positive horizon %v", horizon))
	}
	a.growStreams(len(streams))
	// Each stream emits frames in increasing arrival order (its uplink delay
	// is constant), so a k-way merge over the streams' next arrivals
	// produces the global FIFO arrival order directly, with no sort. The
	// ring holds the streams still to serve, sorted by (arrival, stream
	// index): arrival ties break toward the lower stream index, matching a
	// deterministic NIC delivering interleaved packets. A stream whose next
	// arrival is +Inf (past the horizon) or NaN leaves the ring for good.
	ring, mask := a.ring, len(a.ring)-1
	head, n := 0, 0
	// Service time scales with the server's speed class. At the
	// homogeneous default (speed 1) the division is an exact identity, so
	// golden traces are bit-identical.
	spd := srv.Speed()
	total := 0
	for si, s := range streams {
		if s.Period <= 0 {
			panic(fmt.Sprintf("cluster: stream %d has period %v", si, s.Period))
		}
		c := &a.cur[si]
		*c = cursor{proc: s.Proc / spd}
		if srv.Uplink > 0 {
			c.tx = s.Bits / srv.Uplink
		}
		if t := a.aim(si, &streams[si], horizon); t < posInf() {
			n = push(ring, mask, head, n, next{t, si})
		}
		a.per[si] = StreamStats{MinLat: math.Inf(1)}
		a.completed[si] = 0
		if !record {
			continue
		}
		if n := math.Ceil((horizon - s.Offset) / s.Period); n > 0 {
			total += int(n)
		}
	}
	var frames []FrameRecord
	if record {
		frames = make([]FrameRecord, 0, total)
	}

	per := a.per
	free, busy, count := 0.0, 0.0, 0
	for n > 0 {
		best, arr := ring[head].si, ring[head].arrive
		head, n = (head+1)&mask, n-1
		c := &a.cur[best]
		start := fmax(arr, free)
		finish := start + c.proc
		free = finish
		busy += c.proc
		l := finish - c.capture
		latSum += l
		count++
		st := &per[best]
		st.Frames++
		st.MeanLat += l
		st.MinLat = fmin(st.MinLat, l)
		st.MaxLat = fmax(st.MaxLat, l)
		st.MaxWait = fmax(st.MaxWait, start-arr)
		if finish <= horizon {
			a.completed[best]++
		}
		if record {
			frames = append(frames, FrameRecord{
				Stream: best, Seq: c.seq, Capture: c.capture, Arrive: arr, Start: start, Finish: finish,
			})
		}
		c.seq++
		if t := a.aim(best, &streams[best], horizon); t < posInf() {
			n = push(ring, mask, head, n, next{t, best})
		}
	}

	res := Result{Frames: frames, PerStream: per, LatSum: latSum, FrameCount: count}
	for si := range per {
		st := &per[si]
		if st.Frames > 0 {
			st.MeanLat /= float64(st.Frames)
			st.Jitter = st.MaxLat - st.MinLat
			st.Throughput = float64(a.completed[si]) / horizon
		} else {
			st.MinLat = 0
		}
		res.MaxJitter = math.Max(res.MaxJitter, st.Jitter)
		res.MaxWait = math.Max(res.MaxWait, st.MaxWait)
	}
	res.Utilization = busy / horizon
	return res
}

// push inserts e into the run of n ring entries that starts at head, sorted
// by (arrival, stream index), walking from the tail, and returns the new
// length. A stream re-aimed one period on arrives after every other stream
// on an equal-period server, so there the walk stops at its first
// comparison; at worst it shifts n entries.
func push(ring []next, mask, head, n int, e next) int {
	i := n
	for ; i > 0; i-- {
		p := ring[(head+i-1)&mask]
		if p.arrive < e.arrive || p.arrive == e.arrive && p.si < e.si {
			break
		}
		ring[(head+i)&mask] = p
	}
	ring[(head+i)&mask] = e
	return n + 1
}

// aim points stream si's cursor at its frame number seq, capture at
// Offset + seq·Period, and returns the frame's arrival one transmission
// delay later, or +Inf once the capture reaches the horizon.
func (a *Arena) aim(si int, s *StreamSpec, horizon float64) float64 {
	c := &a.cur[si]
	c.capture = s.Offset + float64(c.seq)*s.Period
	if c.capture >= horizon {
		return posInf()
	}
	return c.capture + c.tx
}

// fmax is math.Max, bit for bit, written so the compiler inlines it
// (math.Max calls out to assembly on amd64): equal operands share their
// bits except ±0, where math.Max keeps -0 only if both are -0 (the AND of
// the bits); +Inf beats NaN; any other NaN gives math.NaN(). The builtin
// max is no substitute: max(+Inf, NaN) is NaN. TestFmaxFminMatchMath and
// FuzzArenaVsOracle check it against math.Max.
func fmax(x, y float64) float64 {
	switch {
	case x > y:
		return x
	case y > x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x == posInf() || y == posInf():
		return posInf()
	}
	return math.NaN()
}

// fmin is math.Min the way fmax is math.Max: ±0 keeps -0 if either is -0
// (the OR of the bits), and -Inf beats NaN.
func fmin(x, y float64) float64 {
	switch {
	case x < y:
		return x
	case y < x:
		return y
	case x == y:
		return math.Float64frombits(math.Float64bits(x) | math.Float64bits(y))
	case x == negInf() || y == negInf():
		return negInf()
	}
	return math.NaN()
}

// posInf and negInf are math.Inf(±1) at a cost the inliner accepts inside
// fmax and fmin.
func posInf() float64 { return math.Float64frombits(0x7FF0000000000000) }
func negInf() float64 { return math.Float64frombits(0xFFF0000000000000) }

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
		obs.F("frames", float64(res.FrameCount)),
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
