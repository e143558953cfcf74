package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleStreamNoContention(t *testing.T) {
	streams := []StreamSpec{{Name: "v1", Period: 0.2, Proc: 0.05, Bits: 1e5}}
	srv := Server{Name: "e1", Uplink: 1e7} // tx = 0.01 s
	res := SimulateServer(streams, srv, 10)
	if res.PerStream[0].Frames != 50 {
		t.Fatalf("frames = %d, want 50", res.PerStream[0].Frames)
	}
	wantLat := 0.05 + 0.01
	if math.Abs(res.PerStream[0].MeanLat-wantLat) > 1e-9 {
		t.Fatalf("latency = %v, want %v", res.PerStream[0].MeanLat, wantLat)
	}
	if res.MaxJitter > JitterEps {
		t.Fatalf("jitter = %v", res.MaxJitter)
	}
	if math.Abs(res.Utilization-0.25) > 1e-9 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
}

func TestOverloadAccumulatesLatency(t *testing.T) {
	// Figure 3(a): a stream whose processing time exceeds its period
	// accumulates latency without bound.
	streams := []StreamSpec{{Name: "v2", Period: 0.1, Proc: 0.15, Bits: 0}}
	res := SimulateServer(streams, Server{Uplink: 0}, 20)
	st := res.PerStream[0]
	if st.MaxLat < 5.0 {
		t.Fatalf("overloaded stream max latency %v, want growing into seconds", st.MaxLat)
	}
	if st.MaxLat <= st.MinLat*10 {
		t.Fatalf("latency did not accumulate: min %v max %v", st.MinLat, st.MaxLat)
	}
	// Throughput is capped by 1/Proc, not the arrival rate.
	if st.Throughput > 1/0.15+0.5 {
		t.Fatalf("throughput %v exceeds service capacity", st.Throughput)
	}
}

func TestContentionBetweenTwoStreams(t *testing.T) {
	// Figure 3(a)'s two-video example: Video 1 (5 fps) and Video 2 (10 fps)
	// with proc times that overflow the server capacity cause queueing.
	streams := []StreamSpec{
		{Name: "v1", Period: 0.2, Proc: 0.1, Bits: 0},
		{Name: "v2", Period: 0.1, Proc: 0.08, Bits: 0},
	}
	// Σ p·s = 0.5 + 0.8 = 1.3 > 1 → overload → growing delays.
	res := SimulateServer(streams, Server{Uplink: 0}, 30)
	if res.MaxWait < 1 {
		t.Fatalf("expected queueing under overload, max wait %v", res.MaxWait)
	}
	if res.Utilization < 0.99 {
		t.Fatalf("overloaded server should be saturated, utilization %v", res.Utilization)
	}
}

func TestDelayJitterFromPoorGrouping(t *testing.T) {
	// Figure 4: two feasible-utilization streams with mismatched periods
	// still jitter when their slots collide.
	bad := []StreamSpec{
		{Name: "v1", Period: 0.3, Proc: 0.12, Bits: 0},
		{Name: "v3", Period: 0.2, Proc: 0.05, Bits: 0},
	}
	// Σ p = 0.17 > gcd(0.3, 0.2) = 0.1 → Const2 violated → jitter expected.
	res := SimulateServer(bad, Server{Uplink: 0}, 60)
	if res.MaxJitter <= JitterEps {
		t.Fatalf("expected jitter from poor grouping, got %v", res.MaxJitter)
	}
}

func TestZeroJitterTheorem1(t *testing.T) {
	// Streams satisfying Σ p ≤ gcd(T) with the theorem's offsets must show
	// exactly zero jitter and zero waiting.
	streams := []StreamSpec{
		{Name: "a", Period: 0.2, Proc: 0.04, Bits: 8e4},
		{Name: "b", Period: 0.4, Proc: 0.06, Bits: 4e4},
		{Name: "c", Period: 0.2, Proc: 0.05, Bits: 2e4},
	}
	// gcd(0.2, 0.4, 0.2) = 0.2 ≥ 0.04+0.06+0.05 = 0.15 ✓
	srv := Server{Uplink: 1e7}
	res := SimulateServer(ZeroJitterOffsetsOn(streams, srv), srv, 50)
	if res.MaxWait > JitterEps {
		t.Fatalf("max wait = %v, want 0", res.MaxWait)
	}
	if res.MaxJitter > JitterEps {
		t.Fatalf("max jitter = %v, want 0", res.MaxJitter)
	}
}

// Property-based check of Theorem 1: random stream sets that satisfy
// Σ p ≤ gcd(T) (with fps-derived periods) never jitter under the
// prescribed offsets.
func TestZeroJitterTheorem1Property(t *testing.T) {
	fpsChoices := []int{1, 2, 5, 10, 15, 30}
	f := func(seed uint64) bool {
		rng := newRng(seed)
		k := 1 + int(seed%4)
		var streams []StreamSpec
		lcm := 1
		for i := 0; i < k; i++ {
			fps := fpsChoices[rng.IntN(len(fpsChoices))]
			lcm = lcmInt(lcm, fps)
			streams = append(streams, StreamSpec{
				Period: 1 / float64(fps),
				Bits:   float64(rng.IntN(100000)),
			})
		}
		gcd := 1 / float64(lcm)
		// Divide the gcd budget among streams with random shares.
		shares := make([]float64, k)
		var tot float64
		for i := range shares {
			shares[i] = rng.Float64() + 0.01
			tot += shares[i]
		}
		for i := range streams {
			streams[i].Proc = 0.95 * gcd * shares[i] / tot
		}
		srv := Server{Uplink: 1e7}
		res := SimulateServer(ZeroJitterOffsetsOn(streams, srv), srv, 20)
		return res.MaxJitter <= JitterEps && res.MaxWait <= JitterEps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateCluster(t *testing.T) {
	streams := []StreamSpec{
		{Name: "a", Period: 0.2, Proc: 0.05},
		{Name: "b", Period: 0.2, Proc: 0.05},
		{Name: "c", Period: 0.5, Proc: 0.3},
	}
	servers := []Server{{Name: "e1", Uplink: 1e7}, {Name: "e2", Uplink: 2e7}}
	results := SimulateCluster(streams, servers, Assignment{0, 1, 1}, 10)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].PerStream[0].Frames != 50 {
		t.Fatalf("server 0 frames = %d", results[0].PerStream[0].Frames)
	}
	if len(results[1].PerStream) != 2 {
		t.Fatalf("server 1 streams = %d", len(results[1].PerStream))
	}
	if MeanLatency(results) <= 0 {
		t.Fatal("mean latency must be positive")
	}
	if MaxJitter(results) < 0 {
		t.Fatal("max jitter negative")
	}
}

func TestUnassignedStreamDropped(t *testing.T) {
	streams := []StreamSpec{{Name: "a", Period: 0.2, Proc: 0.05}}
	results := SimulateCluster(streams, []Server{{Uplink: 1e7}}, Assignment{-1}, 5)
	if len(results[0].Frames) != 0 {
		t.Fatal("unassigned stream was simulated")
	}
}

func TestSimulatePanicsOnBadInput(t *testing.T) {
	mustPanic(t, func() { SimulateServer(nil, Server{}, 0) })
	mustPanic(t, func() {
		SimulateServer([]StreamSpec{{Period: 0}}, Server{}, 1)
	})
	mustPanic(t, func() {
		SimulateCluster([]StreamSpec{{Period: 1}}, nil, Assignment{}, 1)
	})
}

// TestSimulateClusterRejectsUnknownServer pins that an assignment naming a
// server the cluster does not have panics instead of silently dropping the
// stream (and its latency) the way an explicit -1 does.
func TestSimulateClusterRejectsUnknownServer(t *testing.T) {
	streams := []StreamSpec{{Period: 0.2, Proc: 0.05}, {Period: 0.5, Proc: 0.1}}
	servers := []Server{{Uplink: 1e7}, {Uplink: 1e7}}
	for _, assign := range []Assignment{{0, 2}, {5, 1}, {-2, 0}, {0, math.MaxInt}} {
		mustPanic(t, func() { SimulateCluster(streams, servers, assign, 1) })
	}
	if r := SimulateCluster(streams, servers, Assignment{-1, 1}, 1); r[0].FrameCount != 0 || r[1].FrameCount != 2 {
		t.Fatalf("valid assignment simulated %d and %d frames, want 0 and 2", r[0].FrameCount, r[1].FrameCount)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestTransmissionDelayIncludedInLatency(t *testing.T) {
	streams := []StreamSpec{{Period: 1, Proc: 0.01, Bits: 1e6}}
	res := SimulateServer(streams, Server{Uplink: 1e6}, 5) // tx = 1 s
	if math.Abs(res.PerStream[0].MeanLat-1.01) > 1e-9 {
		t.Fatalf("latency = %v, want 1.01", res.PerStream[0].MeanLat)
	}
}

func TestVirtualize(t *testing.T) {
	phys := []PhysicalServer{
		{Name: "big", Units: 3.7, Uplink: 30e6},
		{Name: "small", Units: 1, Uplink: 10e6},
		{Name: "tiny", Units: 0.5, Uplink: 5e6}, // below one unit: dropped
	}
	vms, err := Virtualize(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 4 {
		t.Fatalf("got %d VMs, want 4", len(vms))
	}
	// big contributes 3 VMs at 10 Mbps each; small 1 VM at 10 Mbps.
	for _, vm := range vms[:3] {
		if math.Abs(vm.Uplink-10e6) > 1 {
			t.Fatalf("big VM uplink %v", vm.Uplink)
		}
	}
	if vms[3].Uplink != 10e6 {
		t.Fatalf("small VM uplink %v", vms[3].Uplink)
	}
	if vms[0].Name == vms[1].Name {
		t.Fatal("VM names not unique")
	}

	if _, err := Virtualize([]PhysicalServer{{Units: -1}}); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := Virtualize([]PhysicalServer{{Units: 0.3}}); err == nil {
		t.Error("no-unit cluster accepted")
	}
}

func BenchmarkSimulateServer(b *testing.B) {
	streams := []StreamSpec{
		{Period: 1.0 / 30, Proc: 0.01, Bits: 1e5},
		{Period: 1.0 / 15, Proc: 0.02, Bits: 2e5},
		{Period: 1.0 / 10, Proc: 0.03, Bits: 3e5},
	}
	srv := Server{Uplink: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulateServer(streams, srv, 60)
	}
}
