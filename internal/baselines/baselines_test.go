package baselines

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/videosim"
)

func testSys(m, n int, seed uint64) *objective.System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: videosim.StandardClips(m, seed), Servers: servers}
}

func checkDecision(t *testing.T, sys *objective.System, d eva.Decision) {
	t.Helper()
	if len(d.Configs) != sys.M() {
		t.Fatalf("%d configs for %d videos", len(d.Configs), sys.M())
	}
	if len(d.Streams) != len(d.Assign) || len(d.Streams) != len(d.Offsets) {
		t.Fatalf("stream/assign/offset length mismatch: %d/%d/%d", len(d.Streams), len(d.Assign), len(d.Offsets))
	}
	for i, a := range d.Assign {
		if a < 0 || a >= sys.N() {
			t.Fatalf("stream %d assigned to %d", i, a)
		}
	}
	// Const1 must hold for both baselines (they respect utilization).
	if !sched.CheckConst1Servers(d.Streams, d.Assign, sys.Servers) {
		t.Fatal("Const1 violated")
	}
	// Evaluation must succeed and be finite.
	out := eva.Evaluate(sys, d)
	for k, v := range out {
		if v < 0 {
			t.Fatalf("objective %s negative: %v", objective.Names[k], v)
		}
	}
}

func TestJCABProducesValidDecision(t *testing.T) {
	sys := testSys(8, 5, 99)
	d, err := JCAB(context.Background(), sys, JCABOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, sys, d)
}

func TestJCABHandlesHeavyLoad(t *testing.T) {
	// 12 videos on 3 servers: placement requires aggressive downgrading.
	sys := testSys(12, 3, 7)
	d, err := JCAB(context.Background(), sys, JCABOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, sys, d)
}

func TestJCABEnergyWeightLowersPower(t *testing.T) {
	sys := testSys(6, 4, 11)
	light, err := JCAB(context.Background(), sys, JCABOptions{WEng: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := JCAB(context.Background(), sys, JCABOptions{WEng: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pl := eva.Evaluate(sys, light)[objective.Energy]
	ph := eva.Evaluate(sys, heavy)[objective.Energy]
	if ph > pl {
		t.Fatalf("heavier energy weight increased power: %v -> %v", pl, ph)
	}
}

func TestJCABDeterministicForSeed(t *testing.T) {
	sys := testSys(5, 3, 13)
	a, err := JCAB(context.Background(), sys, JCABOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := JCAB(context.Background(), sys, JCABOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Configs {
		if a.Configs[i] != b.Configs[i] {
			t.Fatalf("config %d differs across identical runs", i)
		}
	}
}

func TestFACTProducesValidDecision(t *testing.T) {
	sys := testSys(8, 5, 99)
	d, err := FACT(context.Background(), sys, FACTOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, sys, d)
}

func TestFACTPrefersFastUplinkForHeavyStreams(t *testing.T) {
	sys := testSys(2, 2, 21)
	// Server 1 has triple the uplink of server 0.
	sys.Servers[0].Uplink = 5e6
	sys.Servers[1].Uplink = 1.5e7
	d, err := FACT(context.Background(), sys, FACTOptions{WLat: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// With heavy latency weight and room on both servers, at least one
	// stream should sit on the fast uplink.
	onFast := false
	for _, a := range d.Assign {
		if a == 1 {
			onFast = true
		}
	}
	if !onFast {
		t.Fatalf("no stream on the fast server: %v", d.Assign)
	}
}

func TestFACTLatencyWeightTradesAccuracy(t *testing.T) {
	sys := testSys(6, 3, 31)
	latHeavy, err := FACT(context.Background(), sys, FACTOptions{WLat: 10, WAcc: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	accHeavy, err := FACT(context.Background(), sys, FACTOptions{WLat: 0.1, WAcc: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ol := eva.Evaluate(sys, latHeavy)
	oa := eva.Evaluate(sys, accHeavy)
	if oa[objective.Accuracy] < ol[objective.Accuracy] {
		t.Fatalf("accuracy-heavy FACT less accurate: %v vs %v", oa[objective.Accuracy], ol[objective.Accuracy])
	}
}

func TestFACTAvoidsOverload(t *testing.T) {
	sys := testSys(10, 4, 41)
	d, err := FACT(context.Background(), sys, FACTOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// FACT's internal model forbids utilization ≥ 1, so the decision's
	// per-server load must stay below 1.
	load := make([]float64, sys.N())
	for i, st := range d.Streams {
		load[d.Assign[i]] += st.Proc / st.Period.Float()
	}
	for j, u := range load {
		if u > 1+1e-9 {
			t.Fatalf("server %d overloaded: %v", j, u)
		}
	}
}

func TestDowngradeLadder(t *testing.T) {
	c := videosim.Config{Resolution: videosim.Resolutions[1], FPS: videosim.FrameRates[1]}
	steps := 0
	for downgrade(&c) {
		steps++
		if steps > 10 {
			t.Fatal("downgrade does not terminate")
		}
	}
	if c.Resolution != videosim.Resolutions[0] || c.FPS != videosim.FrameRates[0] {
		t.Fatalf("downgrade ended at %+v", c)
	}
	if downgradable(c) {
		t.Fatal("min config reported downgradable")
	}
}

func TestFirstFitRespectsCapacity(t *testing.T) {
	streams := []sched.Stream{
		{Period: sched.RatFromFPS(10), Proc: 0.04},
		{Period: sched.RatFromFPS(10), Proc: 0.04},
		{Period: sched.RatFromFPS(10), Proc: 0.04},
	}
	assign, failed := firstFit(streams, 2)
	if failed >= 0 {
		t.Fatalf("fit should succeed: failed=%d", failed)
	}
	load := make([]float64, 2)
	for i, s := range streams {
		load[assign[i]] += s.Proc / s.Period.Float()
	}
	for j, u := range load {
		if u > 1 {
			t.Fatalf("server %d over capacity: %v", j, u)
		}
	}
	// Infeasible case.
	heavy := []sched.Stream{
		{Period: sched.RatFromFPS(10), Proc: 0.11},
	}
	if _, failed := firstFit(heavy, 1); failed != 0 {
		t.Fatalf("overloaded stream not rejected: %d", failed)
	}
}
