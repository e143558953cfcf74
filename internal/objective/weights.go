package objective

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Classical fixed-weight definitions from the multi-objective optimization
// literature (Gunantara 2018, the paper's reference [10]). The paper argues
// none of these can capture real pricing preferences — the ablation in
// internal/exp quantifies that against learned preferences.

// ParseWeights parses a comma-separated weight list in objective order
// (latency,accuracy,network,compute,energy). It accepts exactly K finite
// values: a NaN or infinite weight would only fail once the benefit is
// serialized, and a short or long list has no unambiguous reading.
func ParseWeights(s string) (Preference, error) {
	parts := strings.Split(s, ",")
	if len(parts) != K {
		return Preference{}, fmt.Errorf("objective: %d weights in %q, want %d (%s)", len(parts), s, K, strings.Join(Names[:], ","))
	}
	var p Preference
	for k, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return Preference{}, fmt.Errorf("objective: %s weight: %w", Names[k], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Preference{}, fmt.Errorf("objective: %s weight %v is not finite", Names[k], v)
		}
		p.W[k] = v
	}
	return p, nil
}

// EqualWeights assigns every objective weight 1/K (scaled to sum 1).
func EqualWeights() Preference {
	var p Preference
	for k := 0; k < K; k++ {
		p.W[k] = 1.0 / K
	}
	return p
}

// ROCWeights returns rank-order-centroid weights for the given importance
// ranking: ranks[k] = r means objective k is the r-th most important
// (1-based). w(r) = (1/K)·Σ_{j=r}^{K} 1/j.
func ROCWeights(ranks [K]int) (Preference, error) {
	if err := validRanks(ranks); err != nil {
		return Preference{}, err
	}
	var p Preference
	for k := 0; k < K; k++ {
		var w float64
		for j := ranks[k]; j <= K; j++ {
			w += 1.0 / float64(j)
		}
		p.W[k] = w / K
	}
	return p, nil
}

// RankSumWeights returns rank-sum weights for the given importance
// ranking: w(r) = 2(K+1−r)/(K(K+1)).
func RankSumWeights(ranks [K]int) (Preference, error) {
	if err := validRanks(ranks); err != nil {
		return Preference{}, err
	}
	var p Preference
	for k := 0; k < K; k++ {
		p.W[k] = 2 * float64(K+1-ranks[k]) / float64(K*(K+1))
	}
	return p, nil
}

func validRanks(ranks [K]int) error {
	var seen [K + 1]bool
	for _, r := range ranks {
		if r < 1 || r > K {
			return fmt.Errorf("objective: rank %d outside [1, %d]", r, K)
		}
		if seen[r] {
			return fmt.Errorf("objective: duplicate rank %d", r)
		}
		seen[r] = true
	}
	return nil
}

// Dominates reports whether a Pareto-dominates b: no objective worse and
// at least one strictly better. All objectives are minimized except
// Accuracy, which is maximized.
func Dominates(a, b Vector) bool {
	better := false
	for k := 0; k < K; k++ {
		av, bv := a[k], b[k]
		if Objective(k) == Accuracy {
			av, bv = -av, -bv // maximize accuracy
		}
		if av > bv {
			return false
		}
		if av < bv {
			better = true
		}
	}
	return better
}

// ParetoFront filters the non-dominated vectors from a set.
func ParetoFront(points []Vector) []Vector {
	var front []Vector
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}
