package exp

import (
	"context"
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// NewSystem builds the experiment system: m MOT16-like clips and n edge
// servers whose uplinks are drawn from the paper's bandwidth set
// {5, 10, 15, 20, 25, 30} Mbps.
func NewSystem(m, n int, seed uint64) *objective.System {
	rng := stats.NewRNG(seed ^ 0x5E5)
	bws := []float64{5e6, 10e6, 15e6, 20e6, 25e6, 30e6}
	servers := make([]cluster.Server, n)
	for j := range servers {
		servers[j] = cluster.Server{Name: "edge", Uplink: bws[rng.IntN(len(bws))]}
	}
	return &objective.System{Clips: videosim.StandardClips(m, seed), Servers: servers}
}

// MethodResult is one scheduler's outcome on an instance (or the average
// over repetitions, in which case NormStd carries the run-to-run spread).
type MethodResult struct {
	Name    string
	Outcome objective.Vector // measured (DES latency)
	Benefit float64          // true benefit U (Eq. 13)
	Norm    float64          // normalized against PaMO+ (footnote 2)
	NormStd float64          // std of Norm across repetitions (0 for single runs)
	Ratio   [objective.K]float64
	Err     error
}

// MethodsConfig controls a four-method comparison run.
type MethodsConfig struct {
	Truth    objective.Preference
	Seed     uint64
	PaMOOpt  pamo.Options // Seed/TruePref filled in per run
	DMNoise  float64
	SkipPaMO bool // only run the baselines and PaMO+ (weight sweeps)
}

// withPlusBudget scales a PaMO option set up for the PaMO+ reference run.
func withPlusBudget(o pamo.Options) pamo.Options {
	scale := func(v int, d int) int {
		if v == 0 {
			return d
		}
		return v + v/2
	}
	o.CandPool = scale(o.CandPool, 30)
	o.MaxIter = scale(o.MaxIter, 18)
	o.Batch = scale(o.Batch, 6)
	return o
}

// RunMethods runs JCAB, FACT, PaMO and PaMO+ on the system and scores all
// of them with the hidden true preference.
func RunMethods(sys *objective.System, cfg MethodsConfig) []MethodResult {
	norm := objective.NewNormalizer(sys)
	score := func(name string, out objective.Vector, err error) MethodResult {
		if err != nil {
			return MethodResult{Name: name, Err: err}
		}
		nv := norm.Normalize(out)
		return MethodResult{
			Name:    name,
			Outcome: out,
			Benefit: cfg.Truth.Benefit(nv),
			Ratio:   cfg.Truth.BenefitRatio(nv),
		}
	}

	var results []MethodResult

	jd, jerr := baselines.JCAB(context.Background(), sys, baselines.JCABOptions{
		WAcc: cfg.Truth.W[objective.Accuracy],
		WEng: cfg.Truth.W[objective.Energy],
		Seed: cfg.Seed,
	})
	var jout objective.Vector
	if jerr == nil {
		jout = eva.Evaluate(sys, jd)
	}
	results = append(results, score("JCAB", jout, jerr))

	fd, ferr := baselines.FACT(context.Background(), sys, baselines.FACTOptions{
		WLat: cfg.Truth.W[objective.Latency],
		WAcc: cfg.Truth.W[objective.Accuracy],
		Seed: cfg.Seed,
	})
	var fout objective.Vector
	if ferr == nil {
		fout = eva.Evaluate(sys, fd)
	}
	results = append(results, score("FACT", fout, ferr))

	if !cfg.SkipPaMO {
		dm := &pref.Oracle{Pref: cfg.Truth, Noise: cfg.DMNoise, Rng: stats.NewRNG(cfg.Seed + 0xD1)}
		po := cfg.PaMOOpt
		po.Seed = cfg.Seed
		res, err := pamo.New(sys, dm, po).Run()
		var out objective.Vector
		if err == nil {
			out = res.Best.Raw
		}
		results = append(results, score("PaMO", out, err))
	}

	// PaMO+ is the normalization reference (the best achievable under the
	// true preference), so give it a larger search budget than PaMO.
	pp := withPlusBudget(cfg.PaMOOpt)
	pp.Seed = cfg.Seed
	pp.TruePref = &cfg.Truth
	resPlus, errPlus := pamo.New(sys, nil, pp).Run()
	var outPlus objective.Vector
	if errPlus == nil {
		outPlus = resPlus.Best.Raw
	}
	results = append(results, score("PaMO+", outPlus, errPlus))

	// Normalize against PaMO+ per the paper's footnote.
	maxU := results[len(results)-1].Benefit
	for i := range results {
		if results[i].Err == nil {
			results[i].Norm = objective.NormalizeBenefit(results[i].Benefit, maxU, cfg.Truth)
		}
	}
	return results
}

// averageRuns repeats RunMethods reps times with distinct seeds and
// averages the normalized benefits (the paper averages three repetitions);
// NormStd records the run-to-run spread.
func averageRuns(sys *objective.System, cfg MethodsConfig, reps int) []MethodResult {
	var acc []MethodResult
	norms := map[int][]float64{}
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(r)*1000
		res := RunMethods(sys, c)
		for i := range res {
			norms[i] = append(norms[i], res[i].Norm)
		}
		if acc == nil {
			acc = res
			continue
		}
		for i := range res {
			acc[i].Benefit += res[i].Benefit
			acc[i].Norm += res[i].Norm
			for k := range acc[i].Ratio {
				acc[i].Ratio[k] += res[i].Ratio[k]
			}
		}
	}
	for i := range acc {
		acc[i].Benefit /= float64(reps)
		acc[i].Norm /= float64(reps)
		acc[i].NormStd = stats.Std(norms[i])
		for k := range acc[i].Ratio {
			acc[i].Ratio[k] /= float64(reps)
		}
	}
	return acc
}
