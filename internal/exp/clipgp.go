package exp

import (
	"math/rand/v2"

	"repro/internal/gp"
	"repro/internal/pamo"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// clipGPs are the five per-clip outcome GPs used by the Figure 2 and 8
// experiments, trained on noisy profiling data with standardized targets:
// five target columns of PaMO's outcome model, since every metric is
// measured at the same configurations.
type clipGPs struct {
	g      *gp.Multi
	scales [5]float64
}

// newTrainedClipGPs profiles the clip at n random grid configurations and
// fits the five outcome GPs (latency=per-frame processing time, accuracy,
// bandwidth, computation, energy).
func newTrainedClipGPs(clip *videosim.Clip, prof *videosim.Profiler, n int, rng *rand.Rand) *clipGPs {
	xs := make([][]float64, 0, n)
	ys := [5][]float64{}
	for i := 0; i < n; i++ {
		cfg := videosim.Config{
			Resolution: videosim.Resolutions[rng.IntN(len(videosim.Resolutions))],
			FPS:        videosim.FrameRates[rng.IntN(len(videosim.FrameRates))],
		}
		m := prof.Measure(clip, cfg)
		xs = append(xs, pamo.EncodeConfig(cfg))
		vals := []float64{m.ProcTime, m.Acc, m.Bandwidth, m.Compute, m.Power}
		for k := range ys {
			ys[k] = append(ys[k], vals[k])
		}
	}
	out := &clipGPs{}
	scaled := make([][]float64, 5)
	for k := range scaled {
		sd := stats.Std(ys[k])
		if sd < 1e-12 {
			sd = 1
		}
		out.scales[k] = sd
		scaled[k] = make([]float64, len(ys[k]))
		for i, y := range ys[k] {
			scaled[k][i] = y / sd
		}
	}
	out.g = pamo.NewOutcomeGP(5)
	if err := out.g.Fit(xs, scaled); err != nil {
		panic(err)
	}
	return out
}

// predict returns the five posterior means (physical units) at cfg.
func (c *clipGPs) predict(cfg videosim.Config) [5]float64 {
	var out [5]float64
	c.g.PredictMean(pamo.EncodeConfig(cfg), out[:])
	for k := range out {
		out[k] *= c.scales[k]
	}
	return out
}
