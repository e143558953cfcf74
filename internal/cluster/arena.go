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
// the streams by their next arrival, the per-stream summary slots and the
// hyperperiod window's per-stream bookkeeping. The arena path keeps no
// frame log: frames are served and summarized in the same pass that merges
// them, so a warm arena simulates without touching the heap.
//
// The arena path also serves a periodic server for one hyperperiod rather
// than for the whole horizon (see extrapolate and DESIGN.md §11), in one of
// two regimes. From the first idle instant that has one hyperperiod of the
// periodic regime behind it, every further hyperperiod repeats the one it
// simulated. On a saturated server (utilization at or above 1) that never
// idles, every further hyperperiod serves the same frames back to back, so
// each latency grows by the same W−L per hyperperiod (W the window's service
// time, L the hyperperiod). Either way it adds copies of that window's sums
// and counts in closed form and serves only the frames near the horizon.
// Frame and completion counts stay exact; the latency sums, extrema and
// utilization agree with the frame-log path up to rounding
// (FuzzArenaVsOracle holds the tolerances). A server neither regime covers
// is served frame by frame, bit-identical to the frame-log path.
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
	win       []window
	sub       []StreamSpec // MeanLatency's per-server stream subset
	simulated int          // frames the last simulate call actually served
	saturated bool         // the last simulate call copied a saturated window
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

// window is one stream's share of the simulated hyperperiod: its period as
// the reduced fraction num/den, its frames per hyperperiod, its cursor at
// the window's start, the latency sum, largest latency and largest wait of
// the window's frames, how many of their copies finish by the horizon, and
// how far a copy moves their latencies and waits.
type window struct {
	num, den int64
	frames   int
	seq      int
	lat      float64
	maxLat   float64
	maxWait  float64
	done     int
	drift    float64
}

// span is what hyperperiod learns of a periodic server: the hyperperiod L,
// the latest first arrival, the largest transmission plus service time, the
// service time work = Σ frames·proc one hyperperiod brings, and whether the
// utilization reaches 1.
type span struct {
	L, first, maxTP, work float64
	saturated             bool
}

// run is the state of one simulation that its phases hand on: the merge
// ring's live run, the server's free instant, the busy time, the running
// latency sum and the frames accounted for.
type run struct {
	head, n int
	free    float64
	busy    float64
	latSum  float64
	count   int
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

func (a *Arena) growStreams(n int) {
	if cap(a.cur) < n {
		a.cur = make([]cursor, n)
		a.per = make([]StreamStats, n)
		a.completed = make([]int, n)
		a.win = make([]window, n)
	}
	a.cur = a.cur[:n]
	a.per = a.per[:n]
	a.completed = a.completed[:n]
	a.win = a.win[:n]
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
// fold out of the log. A periodic server is served for one hyperperiod and
// extrapolated (see Arena).
func (a *Arena) SimulateServer(streams []StreamSpec, srv Server, horizon float64) Result {
	return a.simulate(streams, srv, horizon, false, 0)
}

// MeanLatency simulates the cluster like SimulateCluster and returns the
// frame-weighted mean end-to-end latency of
// MeanLatency(SimulateCluster(streams, servers, assign, horizon)) without
// frame logs: one running latency sum is threaded through the servers in
// index order, the order the logs would fold it. Each server runs the arena
// path, so the mean agrees with the frame-log fold up to rounding, and bit
// for bit when the hyperperiod rule leaves every server to the full run. A
// warm arena allocates nothing.
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
// the result owns. Without it, extrapolate may replace all but the first
// and last few hyperperiods by copies of one. The result's LatSum
// continues the running sum latSum.
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
	r := run{latSum: latSum}
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
			r.n = push(a.ring, len(a.ring)-1, r.head, r.n, next{t, si})
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
	a.simulated, a.saturated = 0, false
	if record {
		frames = make([]FrameRecord, 0, total)
	} else {
		a.extrapolate(&r, streams, horizon)
	}
	frames = a.serve(&r, streams, horizon, math.MaxInt, frames, record)

	per := a.per
	res := Result{Frames: frames, PerStream: per, LatSum: r.latSum, FrameCount: r.count}
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
	res.Utilization = r.busy / horizon
	return res
}

// serve serves up to budget frames off the front of the merge ring, in
// FIFO order, folds each into the summary and, with record set, appends it
// to frames.
func (a *Arena) serve(r *run, streams []StreamSpec, horizon float64, budget int, frames []FrameRecord, record bool) []FrameRecord {
	ring, mask, per := a.ring, len(a.ring)-1, a.per
	head, n := r.head, r.n
	free, busy, latSum, count := r.free, r.busy, r.latSum, r.count
	for ; n > 0 && budget > 0; budget-- {
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
	a.simulated += count - r.count
	r.head, r.n = head, n
	r.free, r.busy, r.latSum, r.count = free, busy, latSum, count
	return frames
}

// idleEps is the margin, in seconds, by which an arrival must find the
// server idle, or on a saturated server busy, to start a hyperperiod
// window, and under which two arrivals of different streams count as a
// near-tie.
const idleEps = 1e-9

// extrapolate serves a periodic server up to the start of one hyperperiod
// window, serves that window, and adds k further copies of it in closed
// form, leaving r and the cursors where serving every frame would have left
// them after those k copies; serve then runs the tail to the horizon.
// Wherever a rule does not hold it stops, and the caller's serve continues
// the full run from the state reached, so such a run is the frame-by-frame
// one, bit for bit.
//
// With L the hyperperiod, the arrivals after the last stream's first
// arrival repeat every L. The window starts at an arrival ι that lies at
// least one L inside that periodic regime and finds the server idle, or on
// a saturated server busy, by more than idleEps; that picks the regime.
//
// Idle: [ι−L, ι) carries the same arrivals as [ι, ι+L), and since the work
// left at the end of a window is monotone in the work at its start, the
// work left at ι+L is at most that at ι, which is zero; by induction every
// window from ι on starts idle and serves the same frames at the same
// latencies. A copy moves every finish by L and no latency.
//
// Saturated: every arrival of the window finds the server busy, so the
// window's frames are served back to back in arrival order, in its service
// time W. The next window's arrivals come L later and find the server W
// later, each busy by D = W−L more than in the window; by induction every
// copy serves the same frames back to back, and moves every finish by W
// and every latency and wait by D. A copy's latency sums are then
// arithmetic series. (D is taken per stream, as W less the stream's
// frames·Tᵢ, the amount a copy moves its captures, so a period that is its
// fraction only within rounding drifts as the full run drifts.) The tail
// is served back to back too. D < 0 leaves the server to the full run, but
// no window that passes the busy test below has it: since the server's
// last idle instant every margin has grown by D per hyperperiod, so a
// margin above idleEps needs D > 0 (a server at utilization exactly 1
// keeps meeting one arrival just free).
//
// The simulated window must confirm its regime: exactly L/Tᵢ frames of
// every stream, no two arrivals of different streams within idleEps
// (rounding could order such a pair differently in another window), every
// arrival of a saturated window busy by more than idleEps plus the rounding
// bound tol, and the next arrival within idleEps of ι+L, finding the server
// as ι did. The copies stop three hyperperiods and one frame's transmission
// and service short of the horizon, so every frame the horizon cuts goes
// through serve's own tests. Their completions are counted per window
// frame (see copiesDone); a copy, or on a saturated server a tail frame,
// that would finish within tol of the horizon, where rounding could decide
// its completion either way, leaves the server to the full run, so the
// counts stay exact.
func (a *Arena) extrapolate(r *run, streams []StreamSpec, horizon float64) {
	sp, ok := a.hyperperiod(streams, horizon)
	if !ok {
		return
	}
	L := sp.L
	lo, hi := sp.first+L, horizon-4*L-sp.maxTP
	if !(lo <= hi) {
		return
	}
	for {
		if r.n == 0 || a.ring[r.head].arrive > hi {
			return
		}
		if arr := a.ring[r.head].arrive; arr >= lo && (arr > r.free+idleEps || sp.saturated && r.free > arr+idleEps) {
			break
		}
		a.serve(r, streams, horizon, 1, nil, false)
	}
	start, mask := a.ring[r.head].arrive, len(a.ring)-1
	k := int(math.Floor((horizon-sp.maxTP-start)/L)) - 3
	if k < 1 {
		return
	}
	// A copy moves finishes by step. On a saturated server the tail is
	// served back to back as well, so its frames are copies too, up to the
	// last one whose captures the horizon admits.
	sat := !(start > r.free+idleEps)
	step, last := L, k
	if sat {
		step, last = sp.work, int(math.Ceil((horizon+sp.maxTP-start)/L))
	}
	frames := 0
	for si := range streams {
		w := &a.win[si]
		w.seq, w.lat, w.done, w.drift = a.cur[si].seq, 0, 0, 0
		w.maxLat, w.maxWait = negInf(), negInf()
		frames += w.frames
	}
	// tol bounds how far a closed-form instant f + m·step strays from the
	// instant that serving every frame reaches: one rounding of a finish
	// instant per frame served in between, and step's own rounding per copy,
	// each at most one ULP of reach, the largest instant involved.
	reach := math.Abs(r.free) + math.Abs(start) + horizon + float64(last+1)*(step+L)
	tol := float64(2*(last+1)*frames+8) * (math.Nextafter(reach, posInf()) - reach)
	busy, latSum := 0.0, 0.0
	for ; frames > 0; frames-- {
		if r.n == 0 || r.n > 1 && a.ring[(r.head+1)&mask].arrive-a.ring[r.head].arrive <= idleEps {
			return
		}
		e := a.ring[r.head]
		gap := r.free - e.arrive // the busy margin, a saturated frame's wait
		if sat && !(gap > idleEps+tol) {
			return
		}
		c := &a.cur[e.si]
		capture, proc := c.capture, c.proc
		a.serve(r, streams, horizon, 1, nil, false)
		done, ok := copiesDone(r.free, step, horizon, tol, k, last)
		if !ok {
			return
		}
		l := r.free - capture
		w := &a.win[e.si]
		w.lat += l
		w.maxLat, w.maxWait = fmax(w.maxLat, l), fmax(w.maxWait, gap)
		w.done += done
		latSum += l
		busy += proc
	}
	if r.n == 0 {
		return
	}
	arr := a.ring[r.head].arrive
	if math.Abs(arr-(start+L)) > idleEps || r.n > 1 && a.ring[(r.head+1)&mask].arrive-arr <= idleEps {
		return
	}
	if sat && !(r.free-arr > idleEps+tol) || !sat && !(arr > r.free+idleEps) {
		return
	}
	for si := range streams {
		w := &a.win[si]
		if a.cur[si].seq-w.seq != w.frames {
			return
		}
		if sat {
			if w.drift = step - float64(w.frames)*streams[si].Period; w.drift < 0 {
				return
			}
		}
	}
	kf := float64(k)
	tri := kf * (kf + 1) / 2 // Σ m over copies 1…k
	dsum := 0.0
	r.head, r.n = 0, 0
	for si := range streams {
		w, st := &a.win[si], &a.per[si]
		d := float64(w.frames) * w.drift
		dsum += d
		st.Frames += k * w.frames
		st.MeanLat += kf*w.lat + tri*d
		if w.drift > 0 {
			st.MaxLat = fmax(st.MaxLat, w.maxLat+kf*w.drift)
			st.MaxWait = fmax(st.MaxWait, w.maxWait+kf*w.drift)
		}
		a.completed[si] += w.done
		r.count += k * w.frames
		a.cur[si].seq += k * w.frames
		if t := a.aim(si, &streams[si], horizon); t < posInf() {
			r.n = push(a.ring, mask, r.head, r.n, next{t, si})
		}
	}
	r.busy += kf * busy
	r.latSum += kf*latSum + tri*dsum
	if sat {
		r.free += kf * step
		a.saturated = true
	}
}

// copiesDone returns how many of copies 1…k of a window frame that finished
// at f finish by the horizon, where copy m finishes at f + m·step. ok is
// false when one of copies 1…last would finish within tol of the horizon:
// rounding could then count it either way. Finishes grow with m, so only
// the last copy by the horizon and the first after it need the test.
func copiesDone(f, step, horizon, tol float64, k, last int) (done int, ok bool) {
	if f+float64(last)*step <= horizon-tol {
		return k, true
	}
	q := int(math.Max(0, math.Min(math.Floor((horizon-f)/step), float64(last))))
	for q < last && f+float64(q+1)*step <= horizon {
		q++
	}
	for q > 0 && f+float64(q)*step > horizon {
		q--
	}
	if q > 0 && !(f+float64(q)*step <= horizon-tol) || q < last && !(f+float64(q+1)*step > horizon+tol) {
		return 0, false
	}
	return min(q, k), true
}

// hyperperiod returns the server's span: the hyperperiod L, the lcm of its
// stream periods, each recovered as a fraction by ratio, the latest first
// arrival, the largest transmission plus service time, the service time
// one hyperperiod brings and whether the utilization reaches 1. It fills
// every stream's window num/den and frames = L/Tᵢ. ok is false, and the
// server is served in full, when a period has no fraction within rounding,
// L exceeds horizon/6, or an offset, delay or service time is not a finite
// non-negative number (a negative one breaks the monotone argument, and an
// infinite one periodicity).
func (a *Arena) hyperperiod(streams []StreamSpec, horizon float64) (sp span, ok bool) {
	if len(streams) == 0 {
		return span{}, false
	}
	// A frame's capture Offset + seq·Period drifts from the fraction's by
	// seq·|Period − num/den|; the tolerance keeps that drift, over the
	// horizon, far below idleEps.
	tol := math.Min(1e-12, idleEps/(16*horizon))
	lcmNum, gcdDen := int64(1), int64(0)
	util := 0.0
	sp.first = negInf()
	for si := range streams {
		s, c, w := &streams[si], &a.cur[si], &a.win[si]
		if !(c.proc >= 0 && c.tx >= 0 && c.proc+c.tx < posInf() && math.Abs(s.Offset) < posInf()) {
			return span{}, false
		}
		if si > 0 && s.Period == streams[si-1].Period {
			w.num, w.den = a.win[si-1].num, a.win[si-1].den
		} else if w.num, w.den, ok = ratio(s.Period, tol); !ok {
			return span{}, false
		}
		g := gcd(lcmNum, w.num)
		if lcmNum/g > maxLcm/w.num {
			return span{}, false
		}
		lcmNum = lcmNum / g * w.num
		gcdDen = gcd(gcdDen, w.den)
		util += c.proc / s.Period
		sp.first = math.Max(sp.first, s.Offset+c.tx)
		sp.maxTP = math.Max(sp.maxTP, c.tx+c.proc)
	}
	sp.L = float64(lcmNum) / float64(gcdDen)
	if sp.L > horizon/6 {
		return span{}, false
	}
	sp.saturated = !(util < 1)
	for si := range streams {
		w := &a.win[si]
		w.frames = int(lcmNum / w.num * (w.den / gcdDen))
		sp.work += float64(w.frames) * a.cur[si].proc
	}
	return sp, true
}

// maxRatio bounds the numerators and denominators ratio returns. Every
// number has convergents within 1e-12 relative once denominators reach
// about 1e6, so the bound is what tells a fraction of small terms (1/fps,
// c/fps) from a float that merely has a close fraction. maxLcm bounds the
// lcm of the numerators, so L/Tᵢ = lcm/num · den/gcd fits an int64.
const (
	maxRatio = 1 << 16
	maxLcm   = 1 << 40
)

// ratio returns the reduced fraction num/den, both at most maxRatio, of the
// first continued-fraction convergent of x that lies within tol·x of it.
// Convergents are the best approximations of their size and their
// denominators grow at least like the Fibonacci numbers, so the search
// takes a few dozen steps at most; ok is false when no convergent within
// the bound is close enough (x is not a fraction of small terms) or x is
// not a positive finite number.
func ratio(x, tol float64) (num, den int64, ok bool) {
	if !(x > 0) {
		return 0, 0, false
	}
	h0, h1 := int64(0), int64(1) // numerators of the convergents before
	k0, k1 := int64(1), int64(0) // and their denominators
	y := x
	for {
		t := math.Floor(y)
		if t > maxRatio {
			return 0, 0, false
		}
		q := int64(t)
		h, k := q*h1+h0, q*k1+k0
		if h > maxRatio || k > maxRatio {
			return 0, 0, false
		}
		if math.Abs(float64(h)/float64(k)-x) <= tol*x {
			return h, k, true
		}
		h0, h1, k0, k1 = h1, h, k1, k
		if y -= t; y <= 0 {
			return 0, 0, false
		}
		y = 1 / y
	}
}

// gcd is the greatest common divisor of two non-negative integers, with
// gcd(0, b) = b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
