package videosim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func refClip() *Clip {
	return &Clip{Name: "ref", AccBase: 0.9, AccFactor: 1, ComputeFac: 1, BitFac: 1, EnergyFac: 1}
}

func TestReferenceCalibration(t *testing.T) {
	c := refClip()
	max := Config{Resolution: 2000, FPS: 30}
	if acc := c.Accuracy(max); acc < 0.75 || acc > 0.9 {
		t.Errorf("max-config mAP = %v, want ≈ 0.8", acc)
	}
	if p := c.ProcTime(2000); p < 0.05 || p > 0.09 {
		t.Errorf("ProcTime(2000) = %v, want ≈ 0.07", p)
	}
	if bw := c.Bandwidth(max); bw < 12e6 || bw > 18e6 {
		t.Errorf("Bandwidth(max) = %v, want ≈ 15 Mbps", bw)
	}
	if comp := c.Compute(max); comp < 30 || comp > 50 {
		t.Errorf("Compute(max) = %v, want ≈ 40 TFLOPS", comp)
	}
	if pw := c.Power(max); pw < 80 || pw > 120 {
		t.Errorf("Power(max) = %v, want ≈ 100 W", pw)
	}
}

func TestLowConfigIsCheap(t *testing.T) {
	c := refClip()
	min := Config{Resolution: 500, FPS: 5}
	if acc := c.Accuracy(min); acc < 0.15 || acc > 0.5 {
		t.Errorf("min-config mAP = %v, want in the Figure 2 low band", acc)
	}
	if bw := c.Bandwidth(min); bw > 1e6 {
		t.Errorf("Bandwidth(min) = %v, want < 1 Mbps", bw)
	}
	if pw := c.Power(min); pw > 10 {
		t.Errorf("Power(min) = %v W", pw)
	}
}

func TestMonotonicityInResolution(t *testing.T) {
	c := refClip()
	for _, fps := range FrameRates {
		prev := Config{Resolution: Resolutions[0], FPS: fps}
		for _, r := range Resolutions[1:] {
			cur := Config{Resolution: r, FPS: fps}
			if c.Accuracy(cur) < c.Accuracy(prev) {
				t.Errorf("accuracy not increasing in resolution at fps %v", fps)
			}
			if c.ProcTime(cur.Resolution) <= c.ProcTime(prev.Resolution) {
				t.Errorf("proc time not increasing in resolution")
			}
			if c.Bandwidth(cur) <= c.Bandwidth(prev) {
				t.Errorf("bandwidth not increasing in resolution")
			}
			if c.Power(cur) <= c.Power(prev) {
				t.Errorf("power not increasing in resolution")
			}
			prev = cur
		}
	}
}

func TestMonotonicityInFPS(t *testing.T) {
	c := refClip()
	for _, r := range Resolutions {
		prev := Config{Resolution: r, FPS: FrameRates[0]}
		for _, fps := range FrameRates[1:] {
			cur := Config{Resolution: r, FPS: fps}
			if c.Accuracy(cur) < c.Accuracy(prev)-1e-12 {
				t.Errorf("accuracy decreasing in fps at res %v", r)
			}
			if c.Compute(cur) <= c.Compute(prev) {
				t.Errorf("compute not increasing in fps")
			}
			if c.Bandwidth(cur) <= c.Bandwidth(prev) {
				t.Errorf("bandwidth not increasing in fps")
			}
			prev = cur
		}
	}
}

func TestProcTimeIndependentOfFPS(t *testing.T) {
	// Figure 2's second panel: per-frame latency does not depend on fps
	// when resources are ample.
	c := refClip()
	if c.ProcTime(1000) != c.ProcTime(1000) {
		t.Fatal("ProcTime must be deterministic")
	}
}

func TestAccuracyBounded(t *testing.T) {
	f := func(res, fps, fac float64) bool {
		c := refClip()
		c.AccFactor = 0.5 + math.Mod(math.Abs(fac), 1.5)
		r := 100 + math.Mod(math.Abs(res), 4000)
		s := 1 + math.Mod(math.Abs(fps), 60)
		a := c.Accuracy(Config{Resolution: r, FPS: s})
		return a >= 0 && a <= 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardClipsReproducible(t *testing.T) {
	a := StandardClips(5, 42)
	b := StandardClips(5, 42)
	if len(a) != 5 {
		t.Fatalf("got %d clips", len(a))
	}
	for i := range a {
		if a[i].AccFactor != b[i].AccFactor || a[i].BitFac != b[i].BitFac {
			t.Fatalf("clip %d not reproducible", i)
		}
		if a[i].Name == "" {
			t.Fatalf("clip %d unnamed", i)
		}
	}
	c := StandardClips(5, 43)
	same := true
	for i := range a {
		if a[i].AccFactor != c[i].AccFactor {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical clips")
	}
}

func TestClipVariationIsBounded(t *testing.T) {
	for _, c := range StandardClips(50, 7) {
		for _, f := range []float64{c.AccFactor, c.ComputeFac, c.BitFac, c.EnergyFac} {
			if f < 0.85 || f > 1.15 {
				t.Fatalf("clip factor %v outside ±12%% band", f)
			}
		}
	}
}

func TestProfilerNoiseAndDrift(t *testing.T) {
	rng := stats.NewRNG(3)
	c := refClip()
	p := NewProfiler(0.02, rng)
	cfg := Config{Resolution: 1000, FPS: 10}
	truth := c.Bandwidth(cfg)
	var obs []float64
	for i := 0; i < 400; i++ {
		m := p.Measure(c, cfg)
		obs = append(obs, m.Bandwidth)
		if m.Acc < 0 || m.Acc > 1 {
			t.Fatalf("measured mAP out of range: %v", m.Acc)
		}
		if m.ProcTime <= 0 || m.Bits <= 0 || m.Compute <= 0 || m.Power <= 0 {
			t.Fatalf("non-positive measurement: %+v", m)
		}
	}
	mean := stats.Mean(obs)
	if math.Abs(mean-truth)/truth > 0.05 {
		t.Fatalf("profiler bias: mean %v vs truth %v", mean, truth)
	}
	if stats.Std(obs)/truth < 0.005 {
		t.Fatal("profiler produced implausibly clean measurements")
	}
}

func TestContentDifficultyRange(t *testing.T) {
	c := NewClip("x", stats.NewRNG(5))
	for tt := 0.0; tt < 200; tt += 1.7 {
		d := c.ContentDifficulty(tt)
		if d < 0.94 || d > 1.06 {
			t.Fatalf("difficulty %v out of ±5%% band", d)
		}
	}
}

func TestDriftedClip(t *testing.T) {
	c := NewClip("d", stats.NewRNG(9))
	cfg := Config{Resolution: 1000, FPS: 10}
	// Find a time where difficulty is clearly above 1.
	var tHard float64
	for tt := 0.0; tt < 100; tt += 0.5 {
		if c.ContentDifficulty(tt) > 1.03 {
			tHard = tt
			break
		}
	}
	d := c.Drifted(tHard)
	if d.Compute(cfg) <= c.Compute(cfg) {
		t.Error("harder content should cost more compute")
	}
	if d.Accuracy(cfg) >= c.Accuracy(cfg) {
		t.Error("harder content should detect worse")
	}
	// Original clip unchanged.
	if c.ComputeFac != NewClip("d", stats.NewRNG(9)).ComputeFac {
		t.Error("Drifted mutated the receiver")
	}
}

func TestNegativeNoiseStdDefaults(t *testing.T) {
	p := NewProfiler(-1, stats.NewRNG(1))
	if p.NoiseStd != 0.02 {
		t.Fatalf("NoiseStd = %v", p.NoiseStd)
	}
}
