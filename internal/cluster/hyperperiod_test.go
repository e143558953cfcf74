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

// TestHyperperiodFallbacksBitExact runs one 30 s server per case the
// hyperperiod rule must leave to the full run and demands that the arena
// served every frame and returned the oracle's result bit for bit.
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
		{"overloaded", []StreamSpec{
			{Period: 0.2, Proc: 0.1},
			{Period: 0.1, Proc: 0.03, Offset: 0.01},
			{Period: 0.2, Proc: 0.05, Offset: 0.02},
		}, noUplink},
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

// TestHyperperiodExtrapolates pins which servers take the hyperperiod
// path: the fleet-placement server serves 48 of its 1,200 frames (two
// hyperperiods of warm-up, the window and a tail under three
// hyperperiods), and a server mixing every grid rate, half of them split
// in two, with random offsets (L = 2 s) serves under two fifths of its
// frames; both stay within closeResult's tolerances.
func TestHyperperiodExtrapolates(t *testing.T) {
	a := NewArena()
	fleet, srv := fleetServer()
	got := a.SimulateServer(fleet, srv, 30)
	if got.FrameCount != 1200 || a.simulated != 48 {
		t.Fatalf("fleet server: served %d of %d frames, want 48 of 1200", a.simulated, got.FrameCount)
	}
	closeResult(t, "fleet server", oracleSimulateServer(fleet, srv, 30), got)
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
	closeResult(t, "mixed server", oracleSimulateServer(mixed, srv, 30), got)
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
