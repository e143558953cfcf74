package gp

import "math"

// PoolHyperparams pools the kernel hyperparameters of the donor GPs: the
// element-wise mean of their log-space kernel parameters and the geometric
// mean of their noise variances. Averaging in log space keeps scale
// parameters (variance, lengthscales) on their natural multiplicative
// axis, so one donor with a 10× lengthscale pulls the pool by a factor,
// not an order of magnitude.
//
// The result seeds a warm-started GP for a task believed similar to the
// donors' — install it with Kernel().SetLogParams and SetNoise before the
// first Fit. Donors may mix exact, multi-target and sparse models.
// ok=false when donors is empty, a donor is nil, the parameter vectors
// disagree in length (incompatible kernels), or any pooled value is
// non-finite; the caller should fall back to its cold defaults.
func PoolHyperparams(donors []Hyperparams) (logParams []float64, noiseVar float64, ok bool) {
	if len(donors) == 0 || donors[0] == nil {
		return nil, 0, false
	}
	logParams = append([]float64(nil), donors[0].Kernel().LogParams()...)
	logNoise := safeLog(donors[0].Noise())
	for _, d := range donors[1:] {
		if d == nil {
			return nil, 0, false
		}
		p := d.Kernel().LogParams()
		if len(p) != len(logParams) {
			return nil, 0, false
		}
		for i, v := range p {
			logParams[i] += v
		}
		logNoise += safeLog(d.Noise())
	}
	n := float64(len(donors))
	for i := range logParams {
		logParams[i] /= n
		if math.IsNaN(logParams[i]) || math.IsInf(logParams[i], 0) {
			return nil, 0, false
		}
	}
	noiseVar = math.Exp(logNoise / n)
	if math.IsNaN(noiseVar) || math.IsInf(noiseVar, 0) || noiseVar <= 0 {
		return nil, 0, false
	}
	return logParams, noiseVar, true
}

// safeLog maps non-positive noise variances (a jitter-free donor) onto a
// tiny positive floor so the geometric mean stays finite.
func safeLog(v float64) float64 {
	if v <= 0 {
		v = 1e-12
	}
	return math.Log(v)
}
