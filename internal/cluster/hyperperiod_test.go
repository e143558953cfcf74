package cluster

import (
	"math"
	"testing"
)

// fleetServer is a fleet-placement server: 8 streams at 5 fps on their
// zero-jitter slot train.
func fleetServer() ([]StreamSpec, Server) {
	streams := make([]StreamSpec, 8)
	for i := range streams {
		streams[i] = StreamSpec{Period: 0.2, Proc: 0.02, Bits: 2e5}
	}
	srv := Server{Uplink: 40e6}
	ZeroJitterOffsetsInPlaceOn(streams, srv)
	return streams, srv
}

// busyEndProc returns a service time x for the second stream of
// busyEndServer such that, in float arithmetic, the arrival at 2 s finds
// the server idle by more than idleEps after a frame of x started at 1.5 s,
// but the arrival at 3 s does not after one started at 2.5 s: instants
// above 2 s round on a coarser grid, so the same exact margin of about
// idleEps passes at the window's start and fails at its end.
func busyEndProc(t *testing.T) float64 {
	t.Helper()
	x := 0.5 - idleEps
	for i := 0; i < 1000; i++ {
		if 2 > 1.5+x+idleEps && !(3 > 2.5+x+idleEps) {
			return x
		}
		x = math.Nextafter(x, 0)
	}
	t.Fatal("no service time puts the window's end margin under idleEps")
	return 0
}

// fullLoad returns 8 streams at 5 fps whose service times, 0.025 s each,
// fill the period exactly: the utilization sums to 1 in float arithmetic,
// while the window's service time sums to one ULP under the 0.2 s
// hyperperiod, so D = W−L < 0. The offsets are step apart.
func fullLoad(step float64) []StreamSpec {
	streams := make([]StreamSpec, 8)
	for i := range streams {
		streams[i] = StreamSpec{Period: 0.2, Proc: 0.025, Offset: step * float64(i)}
	}
	return streams
}

// TestHyperperiodFallbacksBitExact runs one 30 s server per case the
// hyperperiod rule must leave to the full run and demands that the arena
// served every frame and returned the oracle's result bit for bit. The
// last three are saturated (utilization at or above 1): one whose window
// starts busy but meets an idle arrival (the 0.1 s stream's queue drains
// before the next 1 s frame); the overloaded server of
// TestHyperperiodExtrapolates with its offsets on the 0.01 s grid, where a
// copy finishes on the horizon itself; and a full-load server (D < 0)
// whose window starts busy behind a bunched first period, then meets an
// arrival the server reaches just in time.
func TestHyperperiodFallbacksBitExact(t *testing.T) {
	x := busyEndProc(t)
	noUplink := Server{}
	cases := []struct {
		name    string
		streams []StreamSpec
		srv     Server
	}{
		{"no rational period", []StreamSpec{
			{Period: 0.2, Proc: 0.01, Bits: 1e5},
			{Period: math.Sqrt2 / 10, Proc: 0.02, Bits: 1e5, Offset: 0.05},
		}, Server{Uplink: 40e6}},
		{"hyperperiod above horizon/6", []StreamSpec{ // lcm(11/10, 13/10) = 14.3 s
			{Period: 1.1, Proc: 0.01, Bits: 1e5},
			{Period: 1.3, Proc: 0.02, Bits: 1e5, Offset: 0.05},
		}, Server{Uplink: 40e6}},
		{"no idle instant", []StreamSpec{ // each arrival meets the other stream's finish
			{Period: 0.2, Proc: 0.1},
			{Period: 0.2, Proc: 0.1 - 0.5*idleEps, Offset: 0.1},
		}, noUplink},
		{"arrival near-tie", []StreamSpec{
			{Period: 0.2, Proc: 0.01},
			{Period: 0.1, Proc: 0.02, Offset: 0.5 * idleEps},
		}, noUplink},
		{"window ends busy", []StreamSpec{
			{Period: 1, Proc: 0.5},
			{Period: 1, Proc: x, Offset: 0.5},
		}, noUplink},
		{"saturated window with an idle arrival", []StreamSpec{
			{Period: 1, Proc: 0.5},
			{Period: 0.1, Proc: 0.05, Offset: 0.25},
		}, noUplink},
		{"saturated copy finishes on the horizon", overloaded(0), noUplink},
		{"full load, D < 0", fullLoad(0.001), noUplink},
	}
	a := NewArena()
	for _, tc := range cases {
		got := a.SimulateServer(tc.streams, tc.srv, 30)
		if a.simulated != got.FrameCount {
			t.Fatalf("%s: served %d of %d frames, want the full run", tc.name, a.simulated, got.FrameCount)
		}
		sameResult(t, tc.name, oracleSimulateServer(tc.streams, tc.srv, 30), got, false)
	}
}

// overloaded is a server at utilization 1.05 (W = 0.21 s of service per
// L = 0.2 s hyperperiod), its offsets shift apart from the 0.01 s grid its
// arrivals and service times lie on.
func overloaded(shift float64) []StreamSpec {
	return []StreamSpec{
		{Period: 0.2, Proc: 0.1, Offset: shift},
		{Period: 0.1, Proc: 0.03, Offset: 0.01 + shift},
		{Period: 0.2, Proc: 0.05, Offset: 0.02 + shift},
	}
}

// TestHyperperiodExtrapolates pins which servers take the hyperperiod
// path: the fleet-placement server serves 48 of its 1,200 frames (two
// hyperperiods of warm-up, the window and a tail under three
// hyperperiods); a server mixing every grid rate, half of them split in
// two, with random offsets (L = 2 s) serves under two fifths of its
// frames; and the overloaded server, saturated from its second
// hyperperiod on, serves 20 of its 600 (warm-up, the window and the tail
// the horizon admits), its latencies growing by 0.01 s per hyperperiod.
// All stay within closeResult's tolerances, the saturated one within
// resultLatTol's.
func TestHyperperiodExtrapolates(t *testing.T) {
	a := NewArena()
	fleet, srv := fleetServer()
	got := a.SimulateServer(fleet, srv, 30)
	if got.FrameCount != 1200 || a.simulated != 48 || a.saturated {
		t.Fatalf("fleet server: served %d of %d frames (saturated %v), want 48 of 1200", a.simulated, got.FrameCount, a.saturated)
	}
	closeResult(t, "fleet server", oracleSimulateServer(fleet, srv, 30), got, latTol)
	rng := newRng(3)
	mixed := make([]StreamSpec, 6)
	for i := range mixed {
		fps := []float64{5, 6, 10, 15, 25, 30}[i]
		p := float64(1+i%2) / fps
		mixed[i] = StreamSpec{Period: p, Offset: rng.Float64() * p, Proc: 0.004, Bits: 1e5}
	}
	got = a.SimulateServer(mixed, srv, 30)
	if 5*a.simulated > 2*got.FrameCount {
		t.Fatalf("mixed server: served %d of %d frames, want under two fifths", a.simulated, got.FrameCount)
	}
	closeResult(t, "mixed server", oracleSimulateServer(mixed, srv, 30), got, latTol)
	over := overloaded(0.0025)
	got = a.SimulateServer(over, Server{}, 30)
	if got.FrameCount != 600 || a.simulated != 20 || !a.saturated {
		t.Fatalf("overloaded server: served %d of %d frames (saturated %v), want 20 of 600, saturated", a.simulated, got.FrameCount, a.saturated)
	}
	want := oracleSimulateServer(over, Server{}, 30)
	closeResult(t, "overloaded server", want, got, resultLatTol(a, want))
}

// TestRatio pins the period recovery: frame-rate-grid periods and their
// split multiples come back as their reduced fractions, and periods with
// no fraction of terms up to maxRatio within the tolerance, and
// non-positive or non-finite ones, do not.
func TestRatio(t *testing.T) {
	for _, fps := range []int64{5, 6, 10, 15, 25, 30, 240} {
		for c := int64(1); c <= 4; c++ {
			num, den, ok := ratio(float64(c)/float64(fps), 1e-12)
			g := gcd(c, fps)
			if !ok || num != c/g || den != fps/g {
				t.Fatalf("%d/%d: got %d/%d ok=%v", c, fps, num, den, ok)
			}
		}
	}
	for _, x := range []float64{math.Sqrt2 / 10, math.Pi, 0.2 * (1 + 1e-9), 0, -0.2, math.Inf(1), math.NaN(), 1e300, 1e-300} {
		if num, den, ok := ratio(x, 1e-12); ok {
			t.Fatalf("ratio(%v) = %d/%d, want none", x, num, den)
		}
	}
}
