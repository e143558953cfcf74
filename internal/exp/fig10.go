package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/baselines"
	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/stats"
)

// Fig10aConfig parameterizes the baseline weight-sensitivity experiment.
type Fig10aConfig struct {
	Weights []float64 // paper: 0.05..5
	Setups  [][2]int  // (servers, videos); paper: {5,8} and {6,10}
	Reps    int
	Seed    uint64
	PaMOOpt pamo.Options
}

func (c Fig10aConfig) withDefaults() Fig10aConfig {
	if len(c.Weights) == 0 {
		c.Weights = []float64{0.05, 0.1, 0.2, 0.5, 0.8, 1, 2, 5}
	}
	if len(c.Setups) == 0 {
		c.Setups = [][2]int{{5, 8}, {6, 10}}
	}
	if c.Reps == 0 {
		c.Reps = 1
	}
	return c
}

// Fig10aRow holds one setup's sweep.
type Fig10aRow struct {
	Servers, Videos int
	Weight          float64
	JCAB, FACT      float64 // normalized benefit at this internal weight
	PaMO, PaMOPlus  float64 // weight-independent references
}

// Fig10a reproduces Figure 10(a): JCAB's and FACT's normalized benefit as
// their *internal* objective weights sweep 0.05–5 while the true system
// preference stays uniform. PaMO and PaMO+ are weight-free references.
// The point of the figure: no weight setting lets the single-objective
// baselines reach PaMO.
func Fig10a(w io.Writer, cfg Fig10aConfig) []Fig10aRow {
	cfg = cfg.withDefaults()
	truth := objective.UniformPreference()
	var rows []Fig10aRow
	t := Table{
		Title:  "Figure 10(a) — baseline sensitivity to internal weights (true preference uniform)",
		Header: []string{"setup", "weight", "JCAB", "FACT", "PaMO", "PaMO+"},
	}
	for _, setup := range cfg.Setups {
		n, m := setup[0], setup[1]
		sys := NewSystem(m, n, cfg.Seed+uint64(n*10+m))
		norm := objective.NewNormalizer(sys)

		// Weight-free references, once per setup.
		pp := cfg.PaMOOpt
		pp.Seed = cfg.Seed
		pp.TruePref = &truth
		resPlus, err := pamo.New(sys, nil, pp).Run()
		if err != nil {
			panic(fmt.Sprintf("fig10a: PaMO+ failed: %v", err))
		}
		maxU := truth.Benefit(norm.Normalize(resPlus.Best.Raw))

		po := cfg.PaMOOpt
		po.Seed = cfg.Seed
		dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(cfg.Seed + 5)}
		resP, err := pamo.New(sys, dm, po).Run()
		if err != nil {
			panic(fmt.Sprintf("fig10a: PaMO failed: %v", err))
		}
		pamoNorm := objective.NormalizeBenefit(truth.Benefit(norm.Normalize(resP.Best.Raw)), maxU, truth)

		for _, wt := range cfg.Weights {
			jNorm, fNorm := 0.0, 0.0
			if d, err := baselines.JCAB(context.Background(), sys, baselines.JCABOptions{WEng: wt, Seed: cfg.Seed}); err == nil {
				u := truth.Benefit(norm.Normalize(eva.Evaluate(sys, d)))
				jNorm = objective.NormalizeBenefit(u, maxU, truth)
			}
			if d, err := baselines.FACT(context.Background(), sys, baselines.FACTOptions{WLat: wt, Seed: cfg.Seed}); err == nil {
				u := truth.Benefit(norm.Normalize(eva.Evaluate(sys, d)))
				fNorm = objective.NormalizeBenefit(u, maxU, truth)
			}
			rows = append(rows, Fig10aRow{Servers: n, Videos: m, Weight: wt, JCAB: jNorm, FACT: fNorm, PaMO: pamoNorm, PaMOPlus: 1})
			t.Add(fmt.Sprintf("n%dv%d", n, m), wt, jNorm, fNorm, pamoNorm, 1.0)
		}
	}
	t.Notes = append(t.Notes, "JCAB sweeps its energy weight, FACT its latency weight; PaMO needs no weight tuning")
	t.Fprint(w)
	return rows
}

// Fig10bConfig parameterizes the termination-threshold experiment.
type Fig10bConfig struct {
	Thresholds []float64 // paper: 0.02..0.2
	Setups     [][2]int
	Seed       uint64
	PaMOOpt    pamo.Options
}

func (c Fig10bConfig) withDefaults() Fig10bConfig {
	if len(c.Thresholds) == 0 {
		c.Thresholds = []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.2}
	}
	if len(c.Setups) == 0 {
		c.Setups = [][2]int{{5, 8}, {6, 10}}
	}
	return c
}

// Fig10bRow is one (setup, threshold) cell.
type Fig10bRow struct {
	Servers, Videos int
	Delta           float64
	PaMO, PaMOPlus  float64
	JCAB, FACT      float64
}

// Fig10b reproduces Figure 10(b): sensitivity to the termination threshold
// δ. PaMO's BO loop stops when the benefit improves by less than δ; the
// baselines' iterative solvers get an equivalent stopping rule (JCAB's
// rounds and FACT's sweeps scale inversely with δ).
func Fig10b(w io.Writer, cfg Fig10bConfig) []Fig10bRow {
	cfg = cfg.withDefaults()
	truth := objective.UniformPreference()
	var rows []Fig10bRow
	t := Table{
		Title:  "Figure 10(b) — sensitivity to the termination threshold δ",
		Header: []string{"setup", "delta", "JCAB", "FACT", "PaMO", "PaMO+"},
	}
	for _, setup := range cfg.Setups {
		n, m := setup[0], setup[1]
		sys := NewSystem(m, n, cfg.Seed+uint64(n*10+m))
		norm := objective.NewNormalizer(sys)
		for _, delta := range cfg.Thresholds {
			// δ → iteration budgets for the baselines' solvers.
			iters := int(1 / delta)
			if iters < 2 {
				iters = 2
			}
			pp := cfg.PaMOOpt
			pp.Seed = cfg.Seed
			pp.Delta = delta
			pp.TruePref = &truth
			resPlus, err := pamo.New(sys, nil, pp).Run()
			if err != nil {
				panic(fmt.Sprintf("fig10b: PaMO+ failed: %v", err))
			}
			maxU := truth.Benefit(norm.Normalize(resPlus.Best.Raw))

			po := cfg.PaMOOpt
			po.Seed = cfg.Seed
			po.Delta = delta
			dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(cfg.Seed + 5)}
			resP, err := pamo.New(sys, dm, po).Run()
			if err != nil {
				panic(fmt.Sprintf("fig10b: PaMO failed: %v", err))
			}
			pamoNorm := objective.NormalizeBenefit(truth.Benefit(norm.Normalize(resP.Best.Raw)), maxU, truth)

			jNorm, fNorm := 0.0, 0.0
			if d, err := baselines.JCAB(context.Background(), sys, baselines.JCABOptions{Rounds: iters, Seed: cfg.Seed}); err == nil {
				u := truth.Benefit(norm.Normalize(eva.Evaluate(sys, d)))
				jNorm = objective.NormalizeBenefit(u, maxU, truth)
			}
			if d, err := baselines.FACT(context.Background(), sys, baselines.FACTOptions{MaxIter: iters, Seed: cfg.Seed}); err == nil {
				u := truth.Benefit(norm.Normalize(eva.Evaluate(sys, d)))
				fNorm = objective.NormalizeBenefit(u, maxU, truth)
			}
			rows = append(rows, Fig10bRow{Servers: n, Videos: m, Delta: delta, PaMO: pamoNorm, PaMOPlus: 1, JCAB: jNorm, FACT: fNorm})
			t.Add(fmt.Sprintf("n%dv%d", n, m), delta, jNorm, fNorm, pamoNorm, 1.0)
		}
	}
	t.Fprint(w)
	return rows
}
