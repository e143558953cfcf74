package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p95 needs 200 samples, a p99 needs 1000.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond of them beyond
// the p-th percentile: n·(1−p/100) ≥ minBeyond.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, and whether the sample supports it.
// xs is not modified.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	return v, supports(len(s), p)
}

// highestSupported returns the highest of the candidate percentiles that n
// samples support under the minBeyond rule, or 50 when none does.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if supports(n, p) {
			return p
		}
	}
	return 50
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
