package exp

import (
	"io"

	"repro/internal/objective"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// Fig8Config parameterizes the outcome-model accuracy experiment.
type Fig8Config struct {
	TrainSizes []int // paper: 200..600 step 100
	TestSize   int   // paper: 20
	Reps       int   // paper: 10
	Seed       uint64
	Noise      float64 // profiling noise (default 2%)
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.TrainSizes) == 0 {
		c.TrainSizes = []int{200, 300, 400, 500, 600}
	}
	if c.TestSize == 0 {
		c.TestSize = 20
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Noise == 0 {
		c.Noise = 0.02
	}
	return c
}

// Fig8Metrics matches the paper's five outcome models: latency (per-frame
// processing), accuracy, bandwidth, computation, energy.
var Fig8Metrics = []string{"latency", "accuracy", "bandwidth", "computation", "energy"}

// Fig8Result is mean R² per metric per training size.
type Fig8Result struct {
	TrainSize int
	R2        [5]float64 // indexed as Fig8Metrics
}

// Fig8 reproduces Figure 8: the coefficient of determination of the GP
// outcome models on held-out configurations as the training set grows.
// Training configurations are random grid points measured with profiling
// noise and content drift; test outcomes are the noise-free ground truth.
func Fig8(w io.Writer, cfg Fig8Config) []Fig8Result {
	cfg = cfg.withDefaults()
	t := Table{
		Title:  "Figure 8 — outcome model R² vs training set size",
		Header: []string{"train_size", "latency", "accuracy", "bandwidth", "computation", "energy"},
	}
	var results []Fig8Result
	for _, size := range cfg.TrainSizes {
		var acc [5]float64
		for rep := 0; rep < cfg.Reps; rep++ {
			seed := cfg.Seed + uint64(size*31+rep)
			r2 := fig8Rep(size, cfg.TestSize, cfg.Noise, seed)
			for k := range acc {
				acc[k] += r2[k]
			}
		}
		var row Fig8Result
		row.TrainSize = size
		for k := range acc {
			row.R2[k] = acc[k] / float64(cfg.Reps)
		}
		results = append(results, row)
		t.Add(size, row.R2[0], row.R2[1], row.R2[2], row.R2[3], row.R2[4])
	}
	t.Notes = append(t.Notes, "R² on 20 random held-out configurations, averaged over repetitions; targets are ground truth")
	t.Fprint(w)
	return results
}

func fig8Rep(trainSize, testSize int, noise float64, seed uint64) [5]float64 {
	rng := stats.NewRNG(seed)
	clip := videosim.StandardClips(1, seed)[0]
	prof := videosim.NewProfiler(noise, rng)

	gps := newTrainedClipGPs(clip, prof, trainSize, rng)

	randCfg := func() videosim.Config {
		return videosim.Config{
			Resolution: videosim.Resolutions[rng.IntN(len(videosim.Resolutions))],
			FPS:        videosim.FrameRates[rng.IntN(len(videosim.FrameRates))],
		}
	}
	obs := make([][]float64, 5)
	preds := make([][]float64, 5)
	for i := 0; i < testSize; i++ {
		cfg := randCfg()
		truth := []float64{
			clip.ProcTime(cfg.Resolution),
			clip.Accuracy(cfg),
			clip.Bandwidth(cfg),
			clip.Compute(cfg),
			clip.Power(cfg),
		}
		pred := gps.predict(cfg)
		for k := 0; k < 5; k++ {
			obs[k] = append(obs[k], truth[k])
			preds[k] = append(preds[k], pred[k])
		}
	}
	var out [5]float64
	for k := 0; k < 5; k++ {
		out[k] = stats.R2(obs[k], preds[k])
	}
	return out
}

// Fig9Config parameterizes the preference-model accuracy experiment.
type Fig9Config struct {
	Pairs    []int // paper: 3, 6, 9, 18, 27
	TestSize int   // paper: 500
	Reps     int   // paper: 10
	PoolSize int   // candidate outcome vectors available for comparison
	Seed     uint64
}

func (c Fig9Config) withDefaults() Fig9Config {
	if len(c.Pairs) == 0 {
		c.Pairs = []int{3, 6, 9, 18, 27}
	}
	if c.TestSize == 0 {
		c.TestSize = 500
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.PoolSize == 0 {
		c.PoolSize = 30
	}
	return c
}

// Fig9Result is the mean pairwise accuracy for one comparison budget.
type Fig9Result struct {
	Pairs    int
	Accuracy float64
}

// Fig9 reproduces Figure 9: pairwise prediction accuracy of the learned
// preference model versus the number of training comparison pairs.
func Fig9(w io.Writer, cfg Fig9Config) []Fig9Result {
	cfg = cfg.withDefaults()
	t := Table{
		Title:  "Figure 9 — preference model accuracy vs comparison pairs",
		Header: []string{"pairs", "accuracy"},
	}
	truth := objective.Preference{W: objective.Vector{1, 2, 0.5, 1.5, 1}}
	var results []Fig9Result
	for _, nPairs := range cfg.Pairs {
		var acc float64
		poolSize := cfg.PoolSize
		if poolSize < 2*nPairs+6 {
			// Larger budgets need a deeper pool or EUBO runs out of
			// informative pairs.
			poolSize = 2*nPairs + 6
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			rng := stats.NewRNG(cfg.Seed + uint64(nPairs*101+rep))
			pool := make([]objective.Vector, poolSize)
			for i := range pool {
				for k := range pool[i] {
					pool[i][k] = rng.Float64()
				}
			}
			dm := &pref.Oracle{Pref: truth}
			l := pref.NewLearner(dm, true, rng)
			if err := l.Learn(pool, nPairs); err != nil {
				continue
			}
			acc += pref.PairwiseAccuracy(l.Model, truth, cfg.TestSize, stats.NewRNG(cfg.Seed+uint64(rep)+7777))
		}
		r := Fig9Result{Pairs: nPairs, Accuracy: acc / float64(cfg.Reps)}
		results = append(results, r)
		t.Add(nPairs, r.Accuracy)
	}
	t.Notes = append(t.Notes, "accuracy: agreement with the true Eq. 13 ranking on random outcome pairs")
	t.Fprint(w)
	return results
}
