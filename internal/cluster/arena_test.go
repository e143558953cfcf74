package cluster

import (
	"fmt"
	"math"
	"reflect"
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

// TestArenaMatchesSimulateServer pins the arena path bit-exact against the
// allocating oracle simulator across repeated reuse, shrinking workloads,
// and a zero-uplink server, both on one reused arena and through the
// package-level fresh-arena SimulateServer.
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
	}
	for ci, tc := range cases {
		streams, _ := arenaWorkload(tc.n)
		want := oracleSimulateServer(streams, tc.srv, tc.horizon)
		sameResult(t, fmt.Sprintf("case %d reused arena", ci), want, a.SimulateServer(streams, tc.srv, tc.horizon))
		sameResult(t, fmt.Sprintf("case %d fresh arena", ci), want, SimulateServer(streams, tc.srv, tc.horizon))
	}
}

func sameResult(t *testing.T, what string, want, got Result) {
	t.Helper()
	if len(want.Frames) != len(got.Frames) || (len(want.Frames) > 0 && !reflect.DeepEqual(want.Frames, got.Frames)) {
		t.Fatalf("%s: frames diverged (%d vs %d records)", what, len(want.Frames), len(got.Frames))
	}
	if len(want.PerStream) != len(got.PerStream) || (len(want.PerStream) > 0 && !reflect.DeepEqual(want.PerStream, got.PerStream)) {
		t.Fatalf("%s: per-stream stats diverged:\n%+v\n%+v", what, want.PerStream, got.PerStream)
	}
	if want.MaxJitter != got.MaxJitter || want.MaxWait != got.MaxWait || want.Utilization != got.Utilization {
		t.Fatalf("%s: aggregates diverged: %+v vs %+v", what, want, got)
	}
}

// oracleSimulateServer is the allocating single-pass FIFO simulator the
// Arena replaced, kept as an independent reference: fresh slices for every
// buffer, no reuse, no arena bookkeeping.
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

// oracleSummarize aggregates simulated frames into per-stream statistics.
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
	return res
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
// same arena alias its buffers, so a second call overwrites the first's
// view. This is intentional; retainers must copy.
func TestArenaResultAliasing(t *testing.T) {
	a := NewArena()
	streams, srv := arenaWorkload(4)
	r1 := a.SimulateServer(streams, srv, 2)
	first := math.NaN()
	if len(r1.Frames) > 0 {
		first = r1.Frames[0].Finish
	}
	r2 := a.SimulateServer(streams, srv, 2)
	if len(r1.Frames) > 0 && len(r2.Frames) > 0 && &r1.Frames[0] != &r2.Frames[0] {
		t.Fatal("expected results from one arena to alias the same buffers")
	}
	if len(r2.Frames) > 0 && r2.Frames[0].Finish != first {
		t.Fatalf("deterministic rerun changed results: %g vs %g", r2.Frames[0].Finish, first)
	}
}
