package pricing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/objective"
)

func TestLinearTariff(t *testing.T) {
	if got := (Linear{Rate: 2}).Cost(3.5); got != 7 {
		t.Fatalf("Cost = %v", got)
	}
}

func TestTieredTariffMarginalRates(t *testing.T) {
	tr, err := NewTiered(
		Bracket{From: 0, Rate: 1},
		Bracket{From: 10, Rate: 2},
		Bracket{From: 20, Rate: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ usage, want float64 }{
		{0, 0},
		{-5, 0},
		{5, 5},
		{10, 10},
		{15, 10 + 10},      // 10·1 + 5·2
		{25, 10 + 20 + 20}, // 10·1 + 10·2 + 5·4
	}
	for _, c := range cases {
		if got := tr.Cost(c.usage); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Cost(%v) = %v, want %v", c.usage, got, c.want)
		}
	}
}

func TestTieredValidation(t *testing.T) {
	if _, err := NewTiered(); err == nil {
		t.Error("empty brackets should fail")
	}
	if _, err := NewTiered(Bracket{From: 5, Rate: 1}); err == nil {
		t.Error("first bracket not at 0 should fail")
	}
	// Unsorted input is sorted.
	tr, err := NewTiered(Bracket{From: 10, Rate: 2}, Bracket{From: 0, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Brackets[0].From != 0 {
		t.Fatalf("brackets not sorted: %+v", tr.Brackets)
	}
}

// Property: tiered cost is non-decreasing and convex-ish (marginal rates
// increase), hence cost(x)/x is non-decreasing for x > 0.
func TestTieredMonotoneProperty(t *testing.T) {
	tr, err := NewTiered(
		Bracket{From: 0, Rate: 0.08},
		Bracket{From: 40, Rate: 0.15},
		Bracket{From: 120, Rate: 0.30},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 300)
		y := math.Mod(math.Abs(b), 300)
		lo, hi := math.Min(x, y), math.Max(x, y)
		return tr.Cost(lo) <= tr.Cost(hi)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaTariff(t *testing.T) {
	q := Quota{Quota: 10, BaseFee: 2, OverRate: 0.5}
	if got := q.Cost(5); got != 2 {
		t.Errorf("under quota: %v", got)
	}
	if got := q.Cost(10); got != 2 {
		t.Errorf("at quota: %v", got)
	}
	if got := q.Cost(14); got != 4 {
		t.Errorf("over quota: %v", got)
	}
}

func TestSLARevenue(t *testing.T) {
	s := SLA{BasePay: 3, AccTarget: 0.5, AccBonus: 2, LatSLO: 0.15, LatPenalty: 20}
	if got := s.Revenue(0.6, 0.1); got != 5 {
		t.Errorf("bonus case: %v", got)
	}
	if got := s.Revenue(0.4, 0.1); got != 3 {
		t.Errorf("no bonus: %v", got)
	}
	if got := s.Revenue(0.6, 0.25); math.Abs(got-3) > 1e-12 {
		t.Errorf("latency penalty: %v", got) // 5 − 20·0.1 = 3
	}
	// Bonus saturates: more accuracy earns nothing extra.
	if s.Revenue(0.95, 0.1) != s.Revenue(0.5, 0.1) {
		t.Error("accuracy bonus must saturate at the target")
	}
}

func TestBillingNetBenefitDirections(t *testing.T) {
	b := CityBilling(8)
	base := objective.Vector{}
	base[objective.Latency] = 0.05
	base[objective.Accuracy] = 0.6
	base[objective.Network] = 8e6
	base[objective.Compute] = 20
	base[objective.Energy] = 50

	u0 := b.NetBenefit(base)

	worseEnergy := base
	worseEnergy[objective.Energy] = 150
	if b.NetBenefit(worseEnergy) >= u0 {
		t.Error("more energy should cost more")
	}
	worseLat := base
	worseLat[objective.Latency] = 0.5
	if b.NetBenefit(worseLat) >= u0 {
		t.Error("SLO-violating latency should cut revenue")
	}
	lowAcc := base
	lowAcc[objective.Accuracy] = 0.3
	if b.NetBenefit(lowAcc) >= u0 {
		t.Error("missing the accuracy target should lose the bonus")
	}
}

func TestBillingNonLinearity(t *testing.T) {
	// The marginal cost of energy grows with the tier — a property no
	// linear weighting reproduces.
	b := CityBilling(8)
	at := func(e float64) float64 {
		v := objective.Vector{}
		v[objective.Accuracy] = 0.6
		v[objective.Energy] = e
		return b.NetBenefit(v)
	}
	d1 := at(0) - at(30)    // 30 W inside tier 1
	d2 := at(130) - at(160) // 30 W inside tier 3
	if d2 <= d1 {
		t.Fatalf("marginal energy cost not increasing: %v vs %v", d1, d2)
	}
}

func TestOracleConsistentWithBilling(t *testing.T) {
	b := CityBilling(4)
	var lo, hi objective.Vector
	for k := 0; k < objective.K; k++ {
		lo[k] = 0
		hi[k] = 1
	}
	hi[objective.Latency] = 0.3 // normalized
	norm := objective.Normalizer{B: objective.Bounds{
		Lo: objective.Vector{0.01, 0.1, 1e6, 1, 5},
		Hi: objective.Vector{0.5, 0.9, 4e7, 100, 300},
	}}
	o := &Oracle{Billing: b, Norm: norm}
	// A cheap accurate outcome beats an expensive inaccurate one.
	good := objective.Vector{0.1, 0.9, 0.1, 0.1, 0.1}
	bad := objective.Vector{0.9, 0.2, 0.9, 0.9, 0.9}
	if !o.Prefer(good, bad) {
		t.Fatal("oracle preference inverted")
	}
	if o.Prefer(bad, good) {
		t.Fatal("oracle must be antisymmetric on strict preference")
	}
}

func TestDenormalizeRoundTrip(t *testing.T) {
	norm := objective.Normalizer{B: objective.Bounds{
		Lo: objective.Vector{1, 2, 3, 4, 5},
		Hi: objective.Vector{11, 12, 13, 14, 15},
	}}
	raw := objective.Vector{6, 7, 8, 9, 10}
	got := norm.Denormalize(norm.Normalize(raw))
	for k := 0; k < objective.K; k++ {
		if math.Abs(got[k]-raw[k]) > 1e-12 {
			t.Fatalf("round trip[%d] = %v, want %v", k, got[k], raw[k])
		}
	}
}
