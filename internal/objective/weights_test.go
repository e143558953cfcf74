package objective

import (
	"math"
	"testing"
)

func ranks(a, b, c, d, e int) [K]int { return [K]int{a, b, c, d, e} }

func TestEqualWeights(t *testing.T) {
	p := EqualWeights()
	for _, w := range p.W {
		if math.Abs(w-0.2) > 1e-15 {
			t.Fatalf("weights = %v", p.W)
		}
	}
}

func TestROCWeights(t *testing.T) {
	p, err := ROCWeights(ranks(1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	// w(1) = (1 + 1/2 + 1/3 + 1/4 + 1/5)/5 = 0.4567
	if math.Abs(p.W[0]-0.45666666666666667) > 1e-12 {
		t.Fatalf("w(1) = %v", p.W[0])
	}
	// Weights decrease with rank and sum to 1.
	var sum float64
	for k := 0; k < K-1; k++ {
		if p.W[k] <= p.W[k+1] {
			t.Fatalf("ROC weights not decreasing: %v", p.W)
		}
	}
	for _, w := range p.W {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ROC weights sum to %v", sum)
	}
}

func TestRankSumWeights(t *testing.T) {
	p, err := RankSumWeights(ranks(2, 1, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	// w(r) = 2(6−r)/30: w(1) = 1/3, w(2) = 4/15.
	if math.Abs(p.W[1]-1.0/3) > 1e-12 || math.Abs(p.W[0]-4.0/15) > 1e-12 {
		t.Fatalf("weights = %v", p.W)
	}
	var sum float64
	for _, w := range p.W {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("rank-sum weights sum to %v", sum)
	}
}

func TestRankValidation(t *testing.T) {
	if _, err := ROCWeights(ranks(1, 2, 3, 4, 6)); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := RankSumWeights(ranks(1, 1, 3, 4, 5)); err == nil {
		t.Error("duplicate rank accepted")
	}
}

func TestDominates(t *testing.T) {
	a := Vector{0.1, 0.9, 0.1, 0.1, 0.1} // better everywhere (acc higher)
	b := Vector{0.2, 0.8, 0.2, 0.2, 0.2}
	if !Dominates(a, b) {
		t.Fatal("a should dominate b")
	}
	if Dominates(b, a) {
		t.Fatal("b should not dominate a")
	}
	if Dominates(a, a) {
		t.Fatal("no strict self-domination")
	}
	// Trade-off: a faster but less accurate — no domination.
	c := Vector{0.05, 0.5, 0.1, 0.1, 0.1}
	if Dominates(a, c) || Dominates(c, a) {
		t.Fatal("trade-off pair must be mutually non-dominated")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Vector{
		{0.1, 0.9, 0.1, 0.1, 0.1},  // non-dominated
		{0.2, 0.8, 0.2, 0.2, 0.2},  // dominated by 0
		{0.05, 0.5, 0.1, 0.1, 0.1}, // non-dominated (faster)
	}
	front := ParetoFront(pts)
	if len(front) != 2 {
		t.Fatalf("front size %d: %v", len(front), front)
	}
}

func TestParseWeights(t *testing.T) {
	p, err := ParseWeights("1, 2,1,1,0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.W != (Vector{1, 2, 1, 1, 0.5}) {
		t.Fatalf("weights = %v", p.W)
	}
	for _, bad := range []string{
		"NaN,1,1,1,1",
		"1,1,+Inf,1,1",
		"1,1,1,-Inf,1",
		"1,1,1,1",
		"1,1,1,1,1,1",
		"1,1,x,1,1",
		"",
	} {
		if _, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q) accepted", bad)
		}
	}
}
