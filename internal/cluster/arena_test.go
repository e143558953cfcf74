package cluster

import (
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
// allocating simulator across repeated reuse, shrinking workloads, and a
// zero-uplink server.
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
		want := SimulateServer(streams, tc.srv, tc.horizon)
		got := a.SimulateServer(streams, tc.srv, tc.horizon)
		if !reflect.DeepEqual(want.Frames, got.Frames) {
			t.Fatalf("case %d: frames diverged (%d vs %d records)", ci, len(want.Frames), len(got.Frames))
		}
		if !reflect.DeepEqual(want.PerStream, got.PerStream) {
			t.Fatalf("case %d: per-stream stats diverged:\n%+v\n%+v", ci, want.PerStream, got.PerStream)
		}
		if want.MaxJitter != got.MaxJitter || want.MaxWait != got.MaxWait || want.Utilization != got.Utilization {
			t.Fatalf("case %d: aggregates diverged: %+v vs %+v", ci, want, got)
		}
	}
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
