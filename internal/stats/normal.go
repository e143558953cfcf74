// Package stats provides the probability and sampling utilities used across
// the GP / Bayesian-optimization stack: standard normal pdf/cdf/quantile
// with numerically stable tails, low-discrepancy and Latin hypercube
// sampling, and small summary-statistics helpers.
package stats

import "math"

const (
	invSqrt2   = 0.7071067811865476 // 1/√2
	invSqrt2Pi = 0.3989422804014327 // 1/√(2π)
	log2Pi     = 1.8378770664093453 // log(2π)
)

// NormPDF returns the standard normal density φ(z).
func NormPDF(z float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*z*z)
}

// NormCDF returns the standard normal distribution function Φ(z).
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z*invSqrt2)
}

// NormLogCDF returns log Φ(z), stable for z far into the left tail where
// Φ(z) underflows. For z < -8 it uses the asymptotic expansion
// log Φ(z) ≈ -z²/2 - log(-z) - log(2π)/2 + log(1 - 1/z² + 3/z⁴).
func NormLogCDF(z float64) float64 {
	if z > -8 {
		return math.Log(NormCDF(z))
	}
	z2 := z * z
	z4 := z2 * z2
	corr := math.Log1p(-1/z2 + 3/z4 - 15/(z4*z2) + 105/(z4*z4))
	return -0.5*z2 - math.Log(-z) - 0.5*log2Pi + corr
}

// InvMills returns the inverse Mills ratio φ(z)/Φ(z), stable for very
// negative z where both terms underflow. As z → -∞ the ratio approaches
// -z + small corrections; we compute it via the asymptotic series
// φ/Φ ≈ -z / (1 - 1/z² + 3/z⁴ - 15/z⁶).
func InvMills(z float64) float64 {
	if z > -8 {
		return NormPDF(z) / NormCDF(z)
	}
	z2 := z * z
	z4 := z2 * z2
	den := 1 - 1/z2 + 3/z4 - 15/(z4*z2) + 105/(z4*z4)
	return -z / den
}

// NormQuantile returns Φ⁻¹(p) for p in (0,1). It bisects Φ over [-40, 40],
// which is monotone and computable via Erfc across that whole range; 90
// bisection steps pin the root to well below double precision. This routine
// is not on any hot path, so robustness beats speed.
func NormQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 90; i++ {
		mid := 0.5 * (lo + hi)
		if NormCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// EMaxGaussianPair returns E[max(A, B)] for jointly Gaussian A ~ N(mu1, s1²),
// B ~ N(mu2, s2²) with covariance c12. This is the closed form used by the
// EUBO acquisition function:
//
//	E[max] = mu1·Φ(δ) + mu2·Φ(-δ) + θ·φ(δ),  θ = √(s1²+s2²-2c12), δ = (mu1-mu2)/θ.
func EMaxGaussianPair(mu1, mu2, s1, s2, c12 float64) float64 {
	theta2 := s1*s1 + s2*s2 - 2*c12
	if theta2 <= 1e-18 {
		return math.Max(mu1, mu2)
	}
	theta := math.Sqrt(theta2)
	delta := (mu1 - mu2) / theta
	return mu1*NormCDF(delta) + mu2*NormCDF(-delta) + theta*NormPDF(delta)
}
