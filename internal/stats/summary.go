package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// R2 returns the coefficient of determination of predictions pred against
// observations obs: R² = 1 - Σ(y-ŷ)²/Σ(y-ȳ)². A constant obs series with a
// perfect prediction returns 1; a constant obs series with any error
// returns -Inf-free 0 by convention.
func R2(obs, pred []float64) float64 {
	if len(obs) != len(pred) {
		panic("stats: R2 length mismatch")
	}
	if len(obs) == 0 {
		return 0
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i, y := range obs {
		r := y - pred[i]
		ssRes += r * r
		d := y - m
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation of the sorted order statistics. xs must be sorted ascending.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
