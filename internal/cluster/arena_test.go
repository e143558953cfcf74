package cluster

import (
	"fmt"
	"math"
	"testing"
)

func arenaWorkload(n int) ([]StreamSpec, Server) {
	streams := make([]StreamSpec, n)
	periods := []float64{1.0 / 30, 1.0 / 15, 1.0 / 10, 1.0 / 5}
	for i := range streams {
		streams[i] = StreamSpec{
			Period: periods[i%len(periods)],
			Proc:   0.001 + 0.0004*float64(i%7),
			Bits:   1e5 * float64(1+i%9),
			Offset: 0.0003 * float64(i%11),
		}
	}
	return streams, Server{Uplink: 40e6}
}

// TestArenaMatchesSimulateServer holds the arena path against the
// allocating oracle simulator across repeated reuse, shrinking workloads,
// a zero-uplink server and 30 s horizons that the hyperperiod rule
// extrapolates, on one reused arena (summary only, closeResult), and the
// package-level fresh-arena SimulateServer bit for bit (summary and
// frames).
func TestArenaMatchesSimulateServer(t *testing.T) {
	a := NewArena()
	cases := []struct {
		n       int
		srv     Server
		horizon float64
	}{
		{12, Server{Uplink: 40e6}, 3},
		{12, Server{Uplink: 40e6}, 3}, // same size: buffers warm
		{5, Server{Uplink: 0}, 2},     // shrink + no uplink
		{20, Server{Uplink: 15e6}, 1.5},
		{0, Server{Uplink: 1e6}, 1}, // empty server
		{12, Server{Uplink: 40e6}, 30},
		{7, Server{Uplink: 0, SpeedFactor: 2}, 30},
		{16, Server{Uplink: 25e6}, 30},
	}
	for ci, tc := range cases {
		streams, _ := arenaWorkload(tc.n)
		want := oracleSimulateServer(streams, tc.srv, tc.horizon)
		got := a.SimulateServer(streams, tc.srv, tc.horizon)
		closeResult(t, fmt.Sprintf("case %d reused arena", ci), want, got, resultLatTol(a, want))
		sameResult(t, fmt.Sprintf("case %d fresh arena", ci), want, SimulateServer(streams, tc.srv, tc.horizon), true)
	}
}

// The arena path's tolerances against the frame-log oracle. Counts are
// exact. Extrapolated idle windows repeat the simulated window's latencies,
// which differ from the full run's by the rounding of instants up to the
// horizon (a few ULPs of 30 s, ~1e-14 s), so latencies, waits and jitters
// agree to latTol seconds; the sums and the utilization add k copies of a
// window sum where the full run adds frame by frame, and agree to sumTol
// relative. A sum of latencies that are zero in the oracle may come out
// as a few ULPs of the instants per frame, hence the absolute floor of
// latTol per frame.
const (
	latTol = 1e-12
	sumTol = 1e-9
)

// resultLatTol is the latency tolerance closeResult applies to the arena
// run that produced got: latTol, unless the run copied a saturated window.
// A saturated server never idles, so the oracle's finish instants are one
// running sum: each frame's finish rounds once at the magnitude of the
// largest finish instant, and a frame's latency carries the rounding of
// every frame served before it. The closed form adds W per copy where the
// oracle adds each service time, so the two latencies part by at most one
// rounding per frame served: frames × one ULP of the largest finish instant.
func resultLatTol(a *Arena, want Result) float64 {
	if !a.saturated {
		return latTol
	}
	last := 0.0
	for _, f := range want.Frames {
		last = math.Max(last, f.Finish)
	}
	return math.Max(latTol, float64(want.FrameCount)*(math.Nextafter(last, math.Inf(1))-last))
}

// closeResult demands got agree with the oracle's want within the latency
// tolerance lat (latTol, or resultLatTol's) and sumTol, with exact frame
// counts, completions (Throughput) and no frame log.
func closeResult(t *testing.T, what string, want, got Result, lat float64) {
	t.Helper()
	if got.Frames != nil {
		t.Fatalf("%s: arena path logged %d frames", what, len(got.Frames))
	}
	if len(want.PerStream) != len(got.PerStream) {
		t.Fatalf("%s: %d stream stats, want %d", what, len(got.PerStream), len(want.PerStream))
	}
	for si, w := range want.PerStream {
		g := got.PerStream[si]
		if g.Frames != w.Frames || !sameBits(g.Throughput, w.Throughput) || !closeSum(g.MeanLat, w.MeanLat, 1, lat) ||
			!closeLat(g.MinLat, w.MinLat, lat) || !closeLat(g.MaxLat, w.MaxLat, lat) || !closeLat(g.Jitter, w.Jitter, lat) ||
			!closeLat(g.MaxWait, w.MaxWait, lat) {
			t.Fatalf("%s: stream %d stats %+v, want %+v", what, si, g, w)
		}
	}
	if got.FrameCount != want.FrameCount || !closeLat(got.MaxJitter, want.MaxJitter, lat) || !closeLat(got.MaxWait, want.MaxWait, lat) ||
		!closeSum(got.Utilization, want.Utilization, 0, lat) || !closeSum(got.LatSum, want.LatSum, want.FrameCount, lat) {
		t.Fatalf("%s: aggregates (jitter %v wait %v util %v latsum %v frames %d), want (%v %v %v %v %d)", what,
			got.MaxJitter, got.MaxWait, got.Utilization, got.LatSum, got.FrameCount,
			want.MaxJitter, want.MaxWait, want.Utilization, want.LatSum, want.FrameCount)
	}
}

// closeLat is agreement within lat seconds; bit-equal values (the
// infinities and NaNs of a fallback run among them) agree too.
func closeLat(got, want, lat float64) bool {
	return sameBits(got, want) || math.Abs(got-want) <= lat
}

// closeSum is agreement within sumTol relative, plus lat for each of
// frames frames.
func closeSum(got, want float64, frames int, lat float64) bool {
	return sameBits(got, want) || math.Abs(got-want) <= sumTol*math.Abs(want)+lat*float64(frames)
}

// sameResult demands got equal the oracle's want bit for bit (signed zeros
// and infinities included; see sameBits for NaNs): every summary field,
// LatSum and FrameCount, and — when frames is set — the frame log. Without
// frames, got must carry no log at all.
func sameResult(t *testing.T, what string, want, got Result, frames bool) {
	t.Helper()
	if frames {
		if len(want.Frames) != len(got.Frames) {
			t.Fatalf("%s: %d frames, want %d", what, len(got.Frames), len(want.Frames))
		}
		for i, w := range want.Frames {
			g := got.Frames[i]
			if g.Stream != w.Stream || g.Seq != w.Seq || !sameBits(g.Capture, w.Capture) || !sameBits(g.Arrive, w.Arrive) ||
				!sameBits(g.Start, w.Start) || !sameBits(g.Finish, w.Finish) {
				t.Fatalf("%s: frame %d = %+v, want %+v", what, i, g, w)
			}
		}
	} else if got.Frames != nil {
		t.Fatalf("%s: arena path logged %d frames", what, len(got.Frames))
	}
	if len(want.PerStream) != len(got.PerStream) {
		t.Fatalf("%s: %d stream stats, want %d", what, len(got.PerStream), len(want.PerStream))
	}
	for si, w := range want.PerStream {
		g := got.PerStream[si]
		if g.Frames != w.Frames || !sameBits(g.MeanLat, w.MeanLat) || !sameBits(g.MinLat, w.MinLat) || !sameBits(g.MaxLat, w.MaxLat) ||
			!sameBits(g.Jitter, w.Jitter) || !sameBits(g.MaxWait, w.MaxWait) || !sameBits(g.Throughput, w.Throughput) {
			t.Fatalf("%s: stream %d stats %+v, want %+v", what, si, g, w)
		}
	}
	if !sameBits(got.MaxJitter, want.MaxJitter) || !sameBits(got.MaxWait, want.MaxWait) || !sameBits(got.Utilization, want.Utilization) ||
		!sameBits(got.LatSum, want.LatSum) || got.FrameCount != want.FrameCount {
		t.Fatalf("%s: aggregates (jitter %v wait %v util %v latsum %v frames %d), want (%v %v %v %v %d)", what,
			got.MaxJitter, got.MaxWait, got.Utilization, got.LatSum, got.FrameCount,
			want.MaxJitter, want.MaxWait, want.Utilization, want.LatSum, want.FrameCount)
	}
}

// sameBits is Float64bits equality, except that any two NaNs match: when
// both operands of an addition are NaN, amd64 returns the one register
// allocation happened to put first, so a NaN's sign and payload depend on
// how the code was compiled, not on what it computes. A NaN against a
// number (say math.Max's +Inf) still fails.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// oracleSimulateServer is the allocating three-pass FIFO simulator the
// Arena replaced, kept as an independent reference: merge every frame into
// a log, serve the log, then summarize it — fresh slices for every buffer,
// no reuse, no cached cursors.
func oracleSimulateServer(streams []StreamSpec, srv Server, horizon float64) Result {
	if horizon <= 0 {
		panic(fmt.Sprintf("cluster: non-positive horizon %v", horizon))
	}
	tx := make([]float64, len(streams))
	total := 0
	for si, s := range streams {
		if s.Period <= 0 {
			panic(fmt.Sprintf("cluster: stream %d has period %v", si, s.Period))
		}
		if srv.Uplink > 0 {
			tx[si] = s.Bits / srv.Uplink
		}
		if n := math.Ceil((horizon - s.Offset) / s.Period); n > 0 {
			total += int(n)
		}
	}
	// Each stream emits frames in increasing arrival order (its uplink delay
	// is constant), so a k-way merge produces the global FIFO arrival order
	// directly — no sort. Arrival ties break toward the lower stream index,
	// matching a deterministic NIC delivering interleaved packets.
	frames := make([]FrameRecord, 0, total)
	next := make([]int, len(streams))
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

	return oracleSummarize(frames, streams, horizon, busy)
}

// oracleSummarize aggregates simulated frames into per-stream statistics,
// and folds LatSum and FrameCount over the log in slice order (service
// order for the FIFO oracle). The EDF variant summarizes with it too.
func oracleSummarize(frames []FrameRecord, streams []StreamSpec, horizon, busy float64) Result {
	res := Result{Frames: frames, PerStream: make([]StreamStats, len(streams))}
	for si := range streams {
		st := &res.PerStream[si]
		st.MinLat = math.Inf(1)
	}
	completed := make([]int, len(streams))
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
	for _, f := range frames {
		res.LatSum += f.Latency()
		res.FrameCount++
	}
	return res
}

// specialFloats are the operands on which fmax/fmin could part from
// math.Max/math.Min: NaNs of both signs and two payloads, ±Inf, ±0, the
// extreme finite and subnormal magnitudes, and ordinary numbers.
var specialFloats = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Float64frombits(0x7FF0000000000123),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 0.5, 1.0 / 3,
}

// TestFmaxFminMatchMath pins the inlined fmax/fmin bit-equal to math.Max
// and math.Min on every ordered pair of special operands.
func TestFmaxFminMatchMath(t *testing.T) {
	for _, x := range specialFloats {
		for _, y := range specialFloats {
			checkFmaxFmin(t, x, y)
		}
	}
}

func checkFmaxFmin(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := math.Float64bits(fmax(x, y)), math.Float64bits(math.Max(x, y)); got != want {
		t.Fatalf("fmax(%v, %v) bits %#x, math.Max %#x", x, y, got, want)
	}
	if got, want := math.Float64bits(fmin(x, y)), math.Float64bits(math.Min(x, y)); got != want {
		t.Fatalf("fmin(%v, %v) bits %#x, math.Min %#x", x, y, got, want)
	}
}

// FuzzArenaVsOracle drives the one-pass simulator against the three-pass
// oracle above: the package-level path's summary, LatSum, FrameCount and
// frame log bit for bit, and the arena path within closeResult's
// tolerances (resultLatTol's where it copied a saturated window) with exact
// counts, and bit for bit whenever it served every frame (a fallback of
// the hyperperiod rule). It also holds fmax/fmin to
// math.Max/math.Min on the raw fuzzed floats. Half the inputs are clean
// periodic servers, the shape the hyperperiod rule extrapolates, and half
// hostile ones. Inputs mix 0–64 streams, so
// the merge ring runs at every power-of-two size up to 64 and wraps past
// its mask; exact arrival ties (duplicated streams, dyadic periods and
// offsets, zero uplink) and near-ties (offsets a fraction of idleEps
// apart); frame-rate-grid periods c/fps with split multiples c, mixed on
// one server; offsets at, one ULP either side of, and beyond the horizon,
// plus +Inf and NaN; overloaded servers, saturated ones among them; NaN,
// ±Inf and negative per-frame costs and sizes from the fuzzer; non-unit speed factors; and horizons
// from 0.5 s to eva.EvalHorizon's 30 s, long enough for the hyperperiod
// rule to extrapolate. With train set, every stream takes one period and
// its offset on the server's zero-jitter slot train
// (ZeroJitterOffsetsInPlaceOn), the shape of a fleet-placement server.
// Periods stay at or above 1/240 s and offsets at or above -horizon, so
// every input terminates quickly. One arena serves every input and, within
// an input, a shrinking series of stream prefixes, so cursor, ring, window
// or summary state left over from a larger run would show.
func FuzzArenaVsOracle(f *testing.F) {
	f.Add(uint64(1), uint8(6), 0.01, 1e5, 1.0, 40e6, 0.05, false)
	f.Add(uint64(2), uint8(16), 0.3, 0.0, 0.5, 0.0, 0.25, false) // overload, ties at zero uplink
	f.Add(uint64(3), uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, false)   // empty server
	f.Add(uint64(4), uint8(9), math.NaN(), math.Inf(1), 2.0, 1e7, math.Inf(1), false)
	f.Add(uint64(5), uint8(12), -0.0, -1e5, 1.1, 5e-324, 1e300, false)
	f.Add(uint64(6), uint8(16), 1.0/3, 2.5e5, 0.3, 15e6, 0.125, false)
	f.Add(uint64(7), uint8(8), 0.02, 2e5, 1.0, 40e6, 0.2, true) // a fleet-placement server: 8 streams at 5 fps
	f.Add(uint64(8), uint8(33), 0.001, 1e5, 1.0, 40e6, 0.1, false)
	f.Add(uint64(9), uint8(64), 0.003, 8e4, 2.0, 25e6, 0.2, true)
	f.Add(uint64(10), uint8(5), 0.004, 1e5, 1.0, 40e6, 1.0/15, false)
	f.Add(uint64(11), uint8(3), 0.002, 3e5, 1.0, 20e6, 0.4, true)
	// Saturated servers that the closed form copies: fleet trains at 5 and
	// 30 fps, and crowded mixed-rate servers, one at a slow speed class.
	f.Add(uint64(26), uint8(16), 0.02, 2e5, 1.0, 40e6, 0.2, true)
	f.Add(uint64(18), uint8(64), 0.004, 8e4, 1.0, 40e6, 1.0/30, true)
	f.Add(uint64(24), uint8(40), 0.01, 1e5, 1.0, 40e6, 0.1, false)
	f.Add(uint64(75), uint8(64), 0.005, 1e5, 0.75, 25e6, 0.2, false)
	a := NewArena()
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, proc, bits, speed, uplink, period float64, train bool) {
		raw := []float64{proc, bits, speed, uplink, period}
		for _, x := range raw {
			for _, y := range append(raw, specialFloats...) {
				checkFmaxFmin(t, x, y)
				checkFmaxFmin(t, y, x)
			}
		}
		rng := newRng(seed)
		horizon := []float64{0.5, 1, 2, 3.3, 12, 30}[rng.IntN(6)]
		var grid []float64
		for _, fps := range []float64{5, 6, 10, 15, 25, 30} {
			for _, c := range []float64{1, 2, 3} {
				grid = append(grid, c/fps) // a frame-rate-grid period, split c ways
			}
		}
		periods := append([]float64{1.0 / 30, 1.0 / 15, 0.1, 0.125, 0.2, 0.25, 0.5, 1.0 / 3, horizon, math.Inf(1)}, grid...)
		trainPeriod := periods[rng.IntN(len(periods))] // unless the fuzzed period is finite
		if !math.IsNaN(period) && !math.IsInf(period, 0) {
			trainPeriod = math.Max(1.0/240, math.Mod(math.Abs(period), 1))
			periods = append(periods, trainPeriod)
		}
		// The first nClean offsets, and the first four service times and
		// sizes, are finite and non-negative.
		offsets := []float64{0, 0.01, 0.125, 0.25, 0.037, 0.0125, 0.3 * idleEps, 0.01 + 0.6*idleEps, 0.125 - 0.4*idleEps,
			math.Copysign(0, -1), -0.3, horizon, math.Nextafter(horizon, 0), math.Nextafter(horizon, 2*horizon), 2 * horizon,
			math.Inf(1), math.NaN()}
		const nClean = 9
		procs := []float64{0, 0.001, 0.01, 0.05, 0.3, 1.25, proc, -proc}
		sizes := []float64{0, 8e4, 1e5, 2.5e5, bits}
		srv := Server{
			Uplink:      []float64{0, 1e7, 40e6, uplink}[rng.IntN(4)],
			SpeedFactor: []float64{0, 1, 0.5, 0.75, 2, 0.3, 1.1, speed}[rng.IntN(8)],
		}
		// Half the inputs are clean periodic servers (grid periods, clean
		// offsets and costs, no twins), the shape the hyperperiod rule
		// extrapolates; the other half mix in every hostile value.
		clean := rng.IntN(2) == 0
		streams := make([]StreamSpec, int(n)%65)
		for i := range streams {
			if clean {
				streams[i] = StreamSpec{
					Period: grid[rng.IntN(len(grid))],
					Offset: offsets[rng.IntN(nClean)],
					Proc:   procs[rng.IntN(4)],
					Bits:   sizes[rng.IntN(4)],
				}
				continue
			}
			if i > 0 && rng.IntN(4) == 0 {
				streams[i] = streams[rng.IntN(i)] // an exact twin: every arrival ties
				continue
			}
			streams[i] = StreamSpec{
				Period: periods[rng.IntN(len(periods))],
				Offset: offsets[rng.IntN(len(offsets))],
				Proc:   procs[rng.IntN(len(procs))],
				Bits:   sizes[rng.IntN(len(sizes))],
			}
		}
		if train {
			for i := range streams {
				streams[i].Period = trainPeriod
			}
			ZeroJitterOffsetsInPlaceOn(streams, srv)
			for i := range streams {
				// Negative fuzzed service times run the slot train back
				// before zero; stopping it at -horizon bounds the frames.
				streams[i].Offset = math.Max(streams[i].Offset, -horizon)
			}
		}
		for k := len(streams); ; k /= 2 {
			sub := streams[:k]
			want := oracleSimulateServer(sub, srv, horizon)
			got := a.SimulateServer(sub, srv, horizon)
			if a.simulated == got.FrameCount {
				sameResult(t, fmt.Sprintf("%d streams, reused arena, every frame served", k), want, got, false)
			} else {
				closeResult(t, fmt.Sprintf("%d streams, reused arena, %d of %d frames served", k, a.simulated, got.FrameCount), want, got, resultLatTol(a, want))
			}
			sameResult(t, fmt.Sprintf("%d streams, package level", k), want, SimulateServer(sub, srv, horizon), true)
			if k == 0 {
				break
			}
		}
	})
}

// TestZeroJitterOffsetsInPlace pins the in-place offsets bit-exact against
// the copying variant.
func TestZeroJitterOffsetsInPlace(t *testing.T) {
	for _, uplink := range []float64{25e6, 0} {
		streams, _ := arenaWorkload(9)
		srv := Server{Uplink: uplink}
		want := ZeroJitterOffsetsOn(streams, srv)
		ZeroJitterOffsetsInPlaceOn(streams, srv)
		for i := range streams {
			if streams[i].Offset != want[i].Offset {
				t.Fatalf("uplink %g: offset[%d] = %g, want %g", uplink, i, streams[i].Offset, want[i].Offset)
			}
		}
		// The in-place schedule must still be zero-jitter when simulated.
		if uplink > 0 {
			res := SimulateServer(streams, srv, 5)
			if res.MaxJitter > JitterEps {
				t.Fatalf("in-place offsets jitter %g", res.MaxJitter)
			}
		}
	}
}

// TestArenaResultAliasing documents the reuse contract: results from the
// same arena alias its per-stream slots, so a second call overwrites the
// first's view, and the arena path returns no frame log. This is
// intentional; retainers must copy.
func TestArenaResultAliasing(t *testing.T) {
	a := NewArena()
	streams, srv := arenaWorkload(4)
	r1 := a.SimulateServer(streams, srv, 2)
	first := r1.PerStream[0]
	r2 := a.SimulateServer(streams, srv, 2)
	if &r1.PerStream[0] != &r2.PerStream[0] {
		t.Fatal("expected results from one arena to alias the same per-stream slots")
	}
	if r2.PerStream[0] != first || r2.LatSum != r1.LatSum || r2.FrameCount != r1.FrameCount {
		t.Fatalf("deterministic rerun changed results: %+v vs %+v", r2.PerStream[0], first)
	}
	if r1.Frames != nil || r2.Frames != nil {
		t.Fatal("arena path returned a frame log")
	}
}

// TestArenaMeanLatencyMatchesFrameLogs holds the log-free cluster mean
// latency to MeanLatency over SimulateCluster's frame logs within sumTol
// relative (closeSum),
// on one reused arena: random assignments with unassigned streams and idle
// servers, shrinking and growing workloads, and horizons up to 30 s, where
// the hyperperiod rule extrapolates.
func TestArenaMeanLatencyMatchesFrameLogs(t *testing.T) {
	rng := newRng(77)
	a := NewArena()
	pool, _ := arenaWorkload(24)
	for trial := 0; trial < 40; trial++ {
		streams := pool[:rng.IntN(len(pool)+1)]
		servers := make([]Server, 1+rng.IntN(5))
		for j := range servers {
			servers[j] = Server{Uplink: []float64{0, 1e7, 40e6}[rng.IntN(3)], SpeedFactor: []float64{0, 1, 0.5, 2}[rng.IntN(4)]}
		}
		assign := make(Assignment, len(streams))
		for i := range assign {
			assign[i] = rng.IntN(len(servers)+1) - 1
		}
		horizon := []float64{0.5, 1, 3.3, 30}[rng.IntN(4)]
		want := MeanLatency(SimulateCluster(streams, servers, assign, horizon))
		if got := a.MeanLatency(streams, servers, assign, horizon); !closeSum(got, want, 1, latTol) {
			t.Fatalf("trial %d: arena mean latency %v, frame logs %v", trial, got, want)
		}
	}
	mustPanic(t, func() { a.MeanLatency(pool[:2], []Server{{}}, Assignment{0, 1}, 1) })
}
