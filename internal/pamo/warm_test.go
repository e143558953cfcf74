package pamo

import (
	"math"
	"testing"

	"repro/internal/objective"
	"repro/internal/pref"
	"repro/internal/videosim"
)

// measure builds a measurement that reports y for every metric.
func measure(y float64) videosim.Measurement {
	return videosim.Measurement{Acc: y, ProcTime: y, Bits: y, Compute: y, Power: y}
}

func TestMetricGPWarmLifecycle(t *testing.T) {
	donor := newClipModels(modelSinks{})
	for _, r := range videosim.Resolutions {
		for _, s := range videosim.FrameRates {
			donor.addMeasurement(videosim.Config{Resolution: r, FPS: s}, measure(0.125*r*r*s))
		}
	}
	if err := donor.refit(); err != nil {
		t.Fatal(err)
	}

	warm := newClipModels(modelSinks{})
	if !warm.warmFrom([]*clipModels{donor}, 6, 25) {
		t.Fatal("warmFrom declined")
	}
	if len(warm.vxs) != 6 {
		t.Fatalf("virtual points = %d, want 6", len(warm.vxs))
	}
	if got, want := warm.model.Noise(), warm.baseNoise*25; math.Abs(got-want) > 1e-15 {
		t.Fatalf("inflated noise = %v, want %v", got, want)
	}
	// Conditioned on virtual points alone, the model already tracks the
	// donor's surface.
	if err := warm.refit(); err != nil {
		t.Fatal(err)
	}
	cfg := videosim.Config{Resolution: 1250, FPS: 15}
	truth := 0.125 * 1250 * 1250 * 15
	if got := warm.means(cfg)[mBits]; math.Abs(got-truth)/truth > 0.5 {
		t.Fatalf("virtual-only mean %v too far from donor truth %v", got, truth)
	}

	// Real measurements retire the virtual set at 2:1 and restore the base
	// noise floor.
	for i := 0; i < 12; i++ {
		r := videosim.Resolutions[i%len(videosim.Resolutions)]
		s := videosim.FrameRates[i%len(videosim.FrameRates)]
		warm.addMeasurement(videosim.Config{Resolution: r, FPS: s}, measure(0.125*r*r*s))
	}
	if err := warm.refit(); err != nil {
		t.Fatal(err)
	}
	if len(warm.vxs) != 0 {
		t.Fatalf("virtual set not retired: %d points", len(warm.vxs))
	}
	if warm.model.Noise() != warm.baseNoise {
		t.Fatalf("noise floor %v not restored to %v", warm.model.Noise(), warm.baseNoise)
	}
	if got := warm.means(cfg)[mBits]; math.Abs(got-truth)/truth > 0.1 {
		t.Fatalf("post-retirement mean %v vs truth %v", got, truth)
	}
}

func TestMetricGPWarmFromDeclines(t *testing.T) {
	donor := newClipModels(modelSinks{})
	conditioned := newClipModels(modelSinks{})
	conditioned.addMeasurement(videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]}, measure(1))
	if conditioned.warmFrom([]*clipModels{donor}, 4, 25) {
		t.Error("model holding data accepted a warm start")
	}
	if fresh := newClipModels(modelSinks{}); fresh.warmFrom(nil, 4, 25) {
		t.Error("warm start with no donors succeeded")
	}
}

func TestBankDonorsDeterministicAndFiltered(t *testing.T) {
	bank := NewBank()
	clips := videosim.StandardClips(4, 42)
	withData := func() *clipModels {
		cm := newClipModels(modelSinks{})
		cm.addMeasurement(videosim.Config{Resolution: videosim.Resolutions[0], FPS: videosim.FrameRates[0]}, measure(1))
		return cm
	}
	bank.put(clips[0], withData())
	bank.put(clips[1], withData())
	bank.put(clips[2], newClipModels(modelSinks{})) // no data: never a donor

	got := bank.donors(clips[3], 3)
	if len(got) != 2 {
		t.Fatalf("donors = %d, want 2 (empty entry filtered)", len(got))
	}
	// Self-exclusion: a clip never donates to itself.
	if self := bank.donors(clips[0], 3); len(self) != 1 {
		t.Fatalf("self-exclusion failed: %d donors", len(self))
	}
	// Deterministic order across repeated calls (map iteration must not
	// leak through).
	for i := 0; i < 10; i++ {
		again := bank.donors(clips[3], 3)
		for k := range got {
			if again[k] != got[k] {
				t.Fatal("donor order unstable")
			}
		}
	}
}

// seededBank runs one scheduler over the three donor clips so the bank
// holds conditioned models for them.
func seededBank(t *testing.T, dm pref.DecisionMaker, opts Options) *Bank {
	t.Helper()
	bank := NewBank()
	opts.Models = bank
	if _, err := New(testSys(3, 4, 7), dm, opts).Run(); err != nil {
		t.Fatalf("donor run: %v", err)
	}
	if bank.Len() != 3 {
		t.Fatalf("bank holds %d clips, want 3", bank.Len())
	}
	return bank
}

// TestBankWarmStartHalvesProfilingCost is the end-to-end differential test
// for the warm-start tentpole: a clip arriving after three similar clips
// have been profiled must land within 10% of the cold-start benefit at no
// more than half the cold initial-profiling cost.
func TestBankWarmStartHalvesProfilingCost(t *testing.T) {
	truth := objective.UniformPreference()
	dm := &pref.Oracle{Pref: truth}
	opts := smallOpts(11)
	opts.UseTruePref = true
	opts.TruePref = truth
	clips := videosim.StandardClips(4, 7)
	newSys := &objective.System{Clips: clips[3:4], Servers: testSys(3, 4, 7).Servers}

	// Initial-profiling cost, isolated from the BO loop's measurements
	// (which both paths pay identically): warm must cost at most half cold.
	probeOpts := opts
	probeOpts.Models = seededBank(t, dm, opts)
	warmProbe := New(newSys, dm, probeOpts)
	if err := warmProbe.profileInit(); err != nil {
		t.Fatalf("warm profileInit: %v", err)
	}
	coldProbe := New(newSys, dm, opts)
	if err := coldProbe.profileInit(); err != nil {
		t.Fatalf("cold profileInit: %v", err)
	}
	if warmProbe.seeds[0] != seedWarm {
		t.Fatalf("new clip seeded %v, want seedWarm", warmProbe.seeds[0])
	}
	if 2*warmProbe.profiles > coldProbe.profiles {
		t.Errorf("warm profiling cost %d exceeds half of cold %d", warmProbe.profiles, coldProbe.profiles)
	}

	// Benefit parity on full runs, each against a fresh bank so the warm
	// run exercises the warm-start path (not a bank hit from the probe).
	runOpts := opts
	runOpts.Models = seededBank(t, dm, opts)
	warmRes, err := New(newSys, dm, runOpts).Run()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	coldRes, err := New(newSys, dm, opts).Run()
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	wb, cb := warmRes.Best.Benefit, coldRes.Best.Benefit
	if wb < cb-0.1*math.Abs(cb) {
		t.Errorf("warm benefit %v more than 10%% below cold %v", wb, cb)
	}
}
