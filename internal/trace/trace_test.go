package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/videosim"
)

func testSys(m, n int) *objective.System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: float64(10+5*j) * 1e6}
	}
	return &objective.System{Clips: videosim.StandardClips(m, 55), Servers: servers}
}

func record(t *testing.T, m, n, perCfg int) (*objective.System, *Trace) {
	t.Helper()
	sys := testSys(m, n)
	prof := videosim.NewProfiler(0.02, stats.NewRNG(9))
	return sys, Record(sys, prof, perCfg)
}

func TestRecordCoversGrid(t *testing.T) {
	sys, tr := record(t, 3, 2, 2)
	wantSamples := 3 * len(videosim.Resolutions) * len(videosim.FrameRates) * 2
	if len(tr.Samples) != wantSamples {
		t.Fatalf("samples = %d, want %d", len(tr.Samples), wantSamples)
	}
	if len(tr.Clips) != 3 || len(tr.Uplinks) != 2 {
		t.Fatalf("system description wrong: %d clips %d uplinks", len(tr.Clips), len(tr.Uplinks))
	}
	if tr.Clips[0].Name != sys.Clips[0].Name {
		t.Fatal("clip identity lost")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, tr := record(t, 2, 2, 1)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(tr.Samples) || got.Clips[1] != tr.Clips[1] {
		t.Fatal("round trip lost data")
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "clips": [], "samples": [{"clip": 0}]}`)); err == nil {
		t.Error("dangling clip reference accepted")
	}
}

func TestSystemReconstruction(t *testing.T) {
	sys, tr := record(t, 3, 2, 1)
	got := tr.System()
	if got.M() != 3 || got.N() != 2 {
		t.Fatalf("shape %d/%d", got.M(), got.N())
	}
	cfg := videosim.Config{Resolution: 1000, FPS: 10}
	if got.Clips[1].Accuracy(cfg) != sys.Clips[1].Accuracy(cfg) {
		t.Fatal("reconstructed clip behaves differently")
	}
	if got.Servers[1].Uplink != sys.Servers[1].Uplink {
		t.Fatal("uplink lost")
	}
}

func TestReplayerCyclesThroughRepetitions(t *testing.T) {
	sys, tr := record(t, 1, 1, 3)
	r := NewReplayer(tr)
	cfg := videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]}
	a := r.Measure(sys.Clips[0], cfg)
	b := r.Measure(sys.Clips[0], cfg)
	c := r.Measure(sys.Clips[0], cfg)
	d := r.Measure(sys.Clips[0], cfg) // wraps to the first repetition
	if a == b && b == c {
		t.Fatal("repetitions identical — noise was not recorded")
	}
	if d != a {
		t.Fatal("replay did not cycle deterministically")
	}
}

func TestReplayerMissingSamplePanics(t *testing.T) {
	_, tr := record(t, 1, 1, 1)
	r := NewReplayer(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unrecorded configuration")
		}
	}()
	r.Measure(&videosim.Clip{Name: "unknown"}, videosim.Config{Resolution: 1000, FPS: 10})
}

func TestReplayerHas(t *testing.T) {
	sys, tr := record(t, 1, 1, 1)
	r := NewReplayer(tr)
	cfg := videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]}
	if !r.Has(sys.Clips[0].Name, cfg) {
		t.Fatal("recorded configuration reported missing")
	}
	if r.Has("nope", cfg) {
		t.Fatal("unknown clip reported present")
	}
	if r.Has(sys.Clips[0].Name, videosim.Config{Resolution: 123, FPS: 7}) {
		t.Fatal("off-grid configuration reported present")
	}
}

// PaMO runs identically twice when profiling is replayed from a trace.
func TestPaMOFromTraceIsReproducible(t *testing.T) {
	sys, tr := record(t, 4, 3, 4)
	truth := objective.UniformPreference()
	run := func() *pamo.Result {
		dm := &pref.Oracle{Pref: truth}
		opt := pamo.Options{
			InitProfiles: 10, InitObs: 2, PrefPairs: 6, PrefPool: 8,
			Batch: 2, MCSamples: 8, CandPool: 6, MaxIter: 2,
			Seed:     21,
			Measurer: NewReplayer(tr),
		}
		res, err := pamo.New(sys, dm, opt).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Best.Decision.Configs {
		if a.Best.Decision.Configs[i] != b.Best.Decision.Configs[i] {
			t.Fatalf("trace-replayed PaMO not reproducible: %+v vs %+v",
				a.Best.Decision.Configs, b.Best.Decision.Configs)
		}
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// Has reports whether the trace recorded the clip/configuration pair.
func (r *Replayer) Has(clipName string, cfg videosim.Config) bool {
	ci, ok := r.names[clipName]
	if !ok {
		return false
	}
	return len(r.byKey[key(ci, cfg.Resolution, cfg.FPS)]) > 0
}
