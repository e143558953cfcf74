package objective

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/videosim"
)

func testSystem(m, n int) *System {
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Name: "e", Uplink: float64(5+5*j) * 1e6}
	}
	return &System{Clips: videosim.StandardClips(m, 17), Servers: servers}
}

func uniform(s *System, cfg videosim.Config) ([]videosim.Config, []int) {
	cfgs := make([]videosim.Config, s.M())
	assign := make([]int, s.M())
	for i := range cfgs {
		cfgs[i] = cfg
		assign[i] = i % s.N()
	}
	return cfgs, assign
}

func TestOutcomesShapeAndSigns(t *testing.T) {
	s := testSystem(4, 2)
	cfgs, assign := uniform(s, videosim.Config{Resolution: 1000, FPS: 10})
	v := s.Outcomes(cfgs, assign)
	if v[Latency] <= 0 || v[Accuracy] <= 0 || v[Network] <= 0 || v[Compute] <= 0 || v[Energy] <= 0 {
		t.Fatalf("non-positive outcomes: %+v", v)
	}
	if v[Accuracy] > 1 {
		t.Fatalf("accuracy %v > 1", v[Accuracy])
	}
}

func TestOutcomesValidation(t *testing.T) {
	s := testSystem(2, 1)
	mustPanic(t, func() { s.Outcomes(nil, nil) })
	cfgs, _ := uniform(s, videosim.Config{Resolution: 500, FPS: 5})
	mustPanic(t, func() { s.Outcomes(cfgs, []int{0, 99}) })
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

func TestOutcomesMonotoneInConfig(t *testing.T) {
	s := testSystem(3, 2)
	lo, assignLo := uniform(s, videosim.Config{Resolution: 500, FPS: 5})
	hi, assignHi := uniform(s, videosim.Config{Resolution: 2000, FPS: 30})
	vLo := s.Outcomes(lo, assignLo)
	vHi := s.Outcomes(hi, assignHi)
	for k := 0; k < K; k++ {
		if vHi[k] <= vLo[k] {
			t.Errorf("objective %s not increasing with config: %v vs %v", Names[k], vLo[k], vHi[k])
		}
	}
}

func TestBetterUplinkLowersLatencyOnly(t *testing.T) {
	s := testSystem(1, 2) // server 1 has double the uplink of server 0
	cfgs := []videosim.Config{{Resolution: 1500, FPS: 10}}
	slow := s.Outcomes(cfgs, []int{0})
	fast := s.Outcomes(cfgs, []int{1})
	if fast[Latency] >= slow[Latency] {
		t.Fatalf("faster uplink did not reduce latency: %v vs %v", fast[Latency], slow[Latency])
	}
	for _, k := range []Objective{Accuracy, Network, Compute, Energy} {
		if fast[k] != slow[k] {
			t.Errorf("%s changed with server choice: %v vs %v", Names[k], slow[k], fast[k])
		}
	}
}

func TestBoundsContainArbitraryOutcomes(t *testing.T) {
	s := testSystem(5, 3)
	b := s.OutcomeBounds()
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		cfgs := make([]videosim.Config, s.M())
		assign := make([]int, s.M())
		for i := range cfgs {
			cfgs[i] = videosim.Config{
				Resolution: videosim.Resolutions[next(len(videosim.Resolutions))],
				FPS:        videosim.FrameRates[next(len(videosim.FrameRates))],
			}
			assign[i] = next(s.N())
		}
		v := s.Outcomes(cfgs, assign)
		for k := 0; k < K; k++ {
			if v[k] < b.Lo[k]-1e-9 || v[k] > b.Hi[k]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeMapsIntoUnitBox(t *testing.T) {
	s := testSystem(4, 2)
	n := NewNormalizer(s)
	cfgs, assign := uniform(s, videosim.Config{Resolution: 1250, FPS: 15})
	norm := n.Normalize(s.Outcomes(cfgs, assign))
	for k := 0; k < K; k++ {
		if norm[k] < 0 || norm[k] > 1 {
			t.Fatalf("normalized %s = %v", Names[k], norm[k])
		}
	}
	// Extremes map to the box corners.
	lo := n.Normalize(n.B.Lo)
	hi := n.Normalize(n.B.Hi)
	for k := 0; k < K; k++ {
		if lo[k] != 0 || hi[k] != 1 {
			t.Fatalf("corner mapping wrong: lo=%v hi=%v", lo, hi)
		}
	}
}

func TestBenefitMaxAtUtopia(t *testing.T) {
	p := UniformPreference()
	if got := p.Benefit(UtopiaNormalized()); got != 0 {
		t.Fatalf("benefit at utopia = %v", got)
	}
	// Anywhere else is negative.
	v := UtopiaNormalized()
	v[Latency] = 0.5
	if got := p.Benefit(v); got >= 0 {
		t.Fatalf("off-utopia benefit = %v", got)
	}
}

func TestBenefitRespectsWeights(t *testing.T) {
	var v Vector
	v[Accuracy] = 1 // at utopia for accuracy
	v[Latency] = 0.4
	pLat := Preference{W: Vector{3, 1, 1, 1, 1}}
	pUni := UniformPreference()
	if pLat.Benefit(v) >= pUni.Benefit(v) {
		t.Fatal("heavier latency weight should penalize latency deviation more")
	}
}

func TestBenefitMonotoneInDeviation(t *testing.T) {
	f := func(a, b float64) bool {
		da := math.Mod(math.Abs(a), 1)
		db := math.Mod(math.Abs(b), 1)
		lo, hi := math.Min(da, db), math.Max(da, db)
		v1, v2 := UtopiaNormalized(), UtopiaNormalized()
		v1[Network] = lo
		v2[Network] = hi
		p := UniformPreference()
		return p.Benefit(v1) >= p.Benefit(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeBenefit(t *testing.T) {
	p := UniformPreference() // minU = -2.5
	if got := NormalizeBenefit(-2.5, 0, p); got != 0 {
		t.Errorf("min benefit normalizes to %v", got)
	}
	if got := NormalizeBenefit(0, 0, p); got != 1 {
		t.Errorf("max benefit normalizes to %v", got)
	}
	if got := NormalizeBenefit(-1.25, 0, p); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mid benefit normalizes to %v", got)
	}
	// Exceeding maxU is clamped, not exploding.
	if got := NormalizeBenefit(1, 0, p); got > 1.05 {
		t.Errorf("clamp failed: %v", got)
	}
	// Degenerate span.
	if got := NormalizeBenefit(-1, -10, p); got != 1 {
		t.Errorf("degenerate span = %v", got)
	}
}

func TestBenefitRatioSumsToOne(t *testing.T) {
	p := Preference{W: Vector{0.2, 1, 1.6, 3.2, 1}}
	var v Vector
	v[Accuracy] = 0.7
	v[Latency] = 0.3
	v[Network] = 0.2
	v[Compute] = 0.6
	v[Energy] = 0.1
	shares := p.BenefitRatio(v)
	var sum float64
	for _, s := range shares {
		if s < 0 {
			t.Fatalf("negative share %v", s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestVectorSliceRoundTrip(t *testing.T) {
	v := Vector{1, 2, 3, 4, 5}
	var got Vector
	copy(got[:], v.Slice())
	if got != v {
		t.Fatalf("round trip: %v", got)
	}
}

// TestConfigOutcomesSkip drops exactly the skipped videos' terms while
// accuracy stays averaged over every video, and leaves latency at 0.
func TestConfigOutcomesSkip(t *testing.T) {
	s := testSystem(3, 2)
	cfgs, assign := uniform(s, videosim.Config{Resolution: 1000, FPS: 10})
	all := s.ConfigOutcomes(cfgs, nil)
	some := s.ConfigOutcomes(cfgs, func(v int) bool { return v == 1 })
	clip := s.Clips[1]
	if d := all[Accuracy] - some[Accuracy]; math.Abs(d-clip.Accuracy(cfgs[1])/float64(s.M())) > 1e-12 {
		t.Fatalf("skipping video 1 moved accuracy by %v", d)
	}
	if d := all[Energy] - some[Energy]; math.Abs(d-clip.Power(cfgs[1])) > 1e-9 {
		t.Fatalf("skipping video 1 moved energy by %v", d)
	}
	if all[Latency] != 0 || some[Latency] != 0 {
		t.Fatal("ConfigOutcomes must leave latency to the placement")
	}
	if full := s.Outcomes(cfgs, assign); full[Accuracy] != all[Accuracy] || full[Energy] != all[Energy] {
		t.Fatal("Outcomes and ConfigOutcomes disagree on the configuration terms")
	}
}
