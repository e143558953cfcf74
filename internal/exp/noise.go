package exp

import (
	"io"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
)

// NoiseConfig parameterizes the profiling-noise robustness study.
type NoiseConfig struct {
	Videos, Servers int
	Levels          []float64 // relative measurement noise std
	DMNoise         float64   // decision-maker response noise
	Reps            int
	Seed            uint64
	PaMOOpt         pamo.Options
}

// NoiseRow is one noise level's averaged result.
type NoiseRow struct {
	Noise   float64
	Benefit float64 // mean true benefit of PaMO's decision
	Iters   float64
}

// NoiseSensitivity extends the paper's sensitivity analysis (§5.4): PaMO's
// achieved true benefit as profiling measurement noise grows from clean to
// very noisy. The GP outcome models absorb moderate noise (that is the
// qNEI design point); heavy noise should degrade gracefully, not
// catastrophically.
func NoiseSensitivity(w io.Writer, cfg NoiseConfig) []NoiseRow {
	if cfg.Videos == 0 {
		cfg.Videos = 8
	}
	if cfg.Servers == 0 {
		cfg.Servers = 5
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []float64{0.005, 0.02, 0.05, 0.1, 0.2}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	truth := objective.UniformPreference()
	t := Table{
		Title:  "Sensitivity — PaMO vs profiling measurement noise",
		Header: []string{"noise_std", "benefit", "iterations"},
	}
	var rows []NoiseRow
	for _, lvl := range cfg.Levels {
		var sumB, sumI float64
		n := 0
		for rep := 0; rep < cfg.Reps; rep++ {
			sys := NewSystem(cfg.Videos, cfg.Servers, cfg.Seed+uint64(rep)*13)
			norm := objective.NewNormalizer(sys)
			opt := cfg.PaMOOpt
			opt.Seed = cfg.Seed + uint64(rep)
			opt.ProfilerNoise = lvl
			dm := &pref.Oracle{Pref: truth, Noise: cfg.DMNoise, Rng: stats.NewRNG(cfg.Seed + uint64(rep))}
			res, err := pamo.New(sys, dm, opt).Run()
			if err != nil {
				continue
			}
			sumB += truth.Benefit(norm.Normalize(eva.Evaluate(sys, res.Best.Decision)))
			sumI += float64(res.Iters)
			n++
		}
		row := NoiseRow{Noise: lvl}
		if n > 0 {
			row.Benefit = sumB / float64(n)
			row.Iters = sumI / float64(n)
		}
		rows = append(rows, row)
		t.Add(lvl, row.Benefit, row.Iters)
	}
	t.Notes = append(t.Notes, "benefit is the Eq. 13 true benefit of the deployed decision (uniform weights; higher is better)")
	t.Fprint(w)
	return rows
}
