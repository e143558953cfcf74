package eva

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/videosim"
)

func sys(m, n int) *objective.System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: videosim.StandardClips(m, 23), Servers: servers}
}

func midCfgs(m int) []videosim.Config {
	cfgs := make([]videosim.Config, m)
	for i := range cfgs {
		cfgs[i] = videosim.Config{Resolution: 1000, FPS: 10}
	}
	return cfgs
}

func TestBuildStreamsSplitsHighRate(t *testing.T) {
	s := sys(2, 2)
	cfgs := []videosim.Config{
		{Resolution: 2000, FPS: 30}, // s·p ≈ 2.1 → split
		{Resolution: 500, FPS: 5},
	}
	streams := BuildStreams(s, cfgs)
	if len(streams) <= 2 {
		t.Fatalf("expected splitting, got %d streams", len(streams))
	}
	var subs int
	for _, st := range streams {
		if st.Video == 0 {
			subs++
			if st.Proc > st.Period.Float()+1e-12 {
				t.Fatalf("sub-stream still self-queues: p=%v T=%v", st.Proc, st.Period.Float())
			}
		}
	}
	if subs < 2 {
		t.Fatalf("video 0 split into %d", subs)
	}
}

func TestBuildStreamsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildStreams(sys(2, 1), midCfgs(3))
}

func TestEvaluateMatchesAnalyticWhenUncontended(t *testing.T) {
	s := sys(3, 3)
	cfgs := midCfgs(3)
	streams := BuildStreams(s, cfgs)
	plan, err := sched.Schedule(streams, s.Servers)
	if err != nil {
		t.Fatal(err)
	}
	d := ZeroJitterDecision(cfgs, streams, plan, s.Servers)
	measured := Evaluate(s, d)
	analytic := analyticOutcomes(s, d)
	// Zero-jitter plan → DES latency equals the analytic Eq. 5 latency.
	if math.Abs(measured[objective.Latency]-analytic[objective.Latency]) > 1e-6 {
		t.Fatalf("measured latency %v vs analytic %v", measured[objective.Latency], analytic[objective.Latency])
	}
	for _, k := range []objective.Objective{objective.Accuracy, objective.Network, objective.Compute, objective.Energy} {
		if measured[k] != analytic[k] {
			t.Fatalf("%s differs: %v vs %v", objective.Names[k], measured[k], analytic[k])
		}
	}
	if MaxJitter(s, d) > cluster.JitterEps {
		t.Fatal("zero-jitter plan jittered in simulation")
	}
}

func TestEvaluatePenalizesContention(t *testing.T) {
	s := sys(4, 2)
	cfgs := make([]videosim.Config, 4)
	for i := range cfgs {
		cfgs[i] = videosim.Config{Resolution: 2000, FPS: 30} // heavy
	}
	streams := BuildStreams(s, cfgs)
	// Pile everything on server 0 with random offsets: contention city.
	assign := make([]int, len(streams))
	rng := stats.NewRNG(1)
	bad := Decision{Configs: cfgs, Streams: streams, Assign: assign, Offsets: RandomOffsets(streams, rng)}
	measured := Evaluate(s, bad)
	analytic := analyticOutcomes(s, bad)
	if measured[objective.Latency] < 2*analytic[objective.Latency] {
		t.Fatalf("contended latency %v not ≫ analytic %v", measured[objective.Latency], analytic[objective.Latency])
	}
}

func TestRandomOffsetsWithinPeriod(t *testing.T) {
	s := sys(3, 2)
	streams := BuildStreams(s, midCfgs(3))
	offs := RandomOffsets(streams, stats.NewRNG(2))
	for i, o := range offs {
		if o < 0 || o >= streams[i].Period.Float() {
			t.Fatalf("offset %v outside [0, %v)", o, streams[i].Period.Float())
		}
	}
}

func TestConfigGridSize(t *testing.T) {
	grid := ConfigGrid()
	want := len(videosim.Resolutions) * len(videosim.FrameRates)
	if len(grid) != want {
		t.Fatalf("grid size %d, want %d", len(grid), want)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := sys(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(s, Decision{Configs: midCfgs(1), Streams: BuildStreams(s, midCfgs(1)), Assign: nil})
}

// TestRecostPricesAtTruth re-costs model-priced, split streams: every
// stream keeps its video, sub-index and period and takes the ground-truth
// cost BuildStreams would give it, and dst's buffer is reused.
func TestRecostPricesAtTruth(t *testing.T) {
	s := sys(2, 2)
	cfgs := []videosim.Config{{Resolution: 2000, FPS: 30}, {Resolution: 500, FPS: 5}}
	truth := BuildStreams(s, cfgs)
	model := make([]sched.Stream, s.M())
	for i := range model {
		model[i] = NewStream(i, cfgs[i], 0.5*s.Clips[i].ProcTime(cfgs[i].Resolution), 1)
	}
	planned := sched.SplitHighRate(model)
	dst := make([]sched.Stream, 0, 16)
	got := Recost(dst, s, planned, cfgs)
	if &got[0] != &dst[:1][0] {
		t.Fatal("Recost did not reuse dst")
	}
	for i, st := range got {
		p := planned[i]
		if st.Video != p.Video || st.Sub != p.Sub || st.Period != p.Period {
			t.Fatalf("stream %d: %+v lost its planned shape %+v", i, st, p)
		}
		clip, cfg := s.Clips[st.Video], cfgs[st.Video]
		if st.Proc != clip.ProcTime(cfg.Resolution) || st.Bits != clip.BitsPerFrame(cfg.Resolution) {
			t.Fatalf("stream %d: cost (%v, %v) is not the truth", i, st.Proc, st.Bits)
		}
	}
	if len(truth) == len(got) {
		t.Fatal("model costs at half the truth should split less than the truth does")
	}
}

// evalDecisions returns zero-jitter and randomly offset, contended
// decisions of several sizes on s.
func evalDecisions(t *testing.T, s *objective.System) []Decision {
	t.Helper()
	rng := stats.NewRNG(5)
	var out []Decision
	for _, cfg := range []videosim.Config{{Resolution: 500, FPS: 5}, {Resolution: 1000, FPS: 10}, {Resolution: 2000, FPS: 30}} {
		cfgs := make([]videosim.Config, s.M())
		for i := range cfgs {
			cfgs[i] = cfg
		}
		streams := BuildStreams(s, cfgs)
		if plan, err := sched.Schedule(streams, s.Servers); err == nil {
			out = append(out, ZeroJitterDecision(cfgs, streams, plan, s.Servers))
		}
		assign := make([]int, len(streams))
		for i := range assign {
			assign[i] = rng.IntN(s.N()+1) - 1
		}
		out = append(out, Decision{Configs: cfgs, Streams: streams, Assign: assign, Offsets: RandomOffsets(streams, rng)})
	}
	return out
}

// TestEvaluatorMatchesFrameLogFold holds a reused Evaluator to the
// evaluation it replaced — MeanLatency over Simulate's frame logs — across
// decisions of different sizes: the configuration outcomes bit for bit,
// and the latency within 1e-9 relative, the arena's extrapolation
// tolerance (cluster's closeSum).
func TestEvaluatorMatchesFrameLogFold(t *testing.T) {
	s := sys(5, 3)
	var e Evaluator
	for round := 0; round < 2; round++ {
		for i, d := range evalDecisions(t, s) {
			want := s.ConfigOutcomes(d.Configs, nil)
			want[objective.Latency] = cluster.MeanLatency(Simulate(s, d))
			got := e.Evaluate(s, d)
			for k := range want {
				if objective.Objective(k) == objective.Latency && math.Abs(got[k]-want[k]) <= 1e-9*math.Abs(want[k]) {
					continue
				}
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("round %d decision %d: %s = %v, frame-log fold %v", round, i, objective.Names[k], got[k], want[k])
				}
			}
			if Evaluate(s, d) != got {
				t.Fatalf("round %d decision %d: package-level Evaluate differs from the Evaluator", round, i)
			}
		}
	}
}

// analyticOutcomes scores a decision with the purely analytic latency of
// Eq. (5) (per-frame processing + transmission, no queueing), which is
// what model-based planners reason with: the oracle the simulated latency
// must meet on an uncontended zero-jitter plan, and stay far above under
// contention.
func analyticOutcomes(sys *objective.System, d Decision) objective.Vector {
	v := sys.ConfigOutcomes(d.Configs, nil)
	var lat float64
	for i, s := range d.Streams {
		b := sys.Servers[d.Assign[i]].Uplink
		tx := 0.0
		if b > 0 {
			tx = s.Bits / b
		}
		lat += s.Proc + tx
	}
	if len(d.Streams) > 0 {
		v[objective.Latency] = lat / float64(len(d.Streams))
	}
	return v
}
