package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/acq"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
)

// SparseScaleConfig sizes the 10×-observation scale scenario for the
// sparse-BO work: every outcome GP is conditioned on ObsScale× the usual
// profiling budget before the BO loop starts, which pushes the exact GP's
// cubic factorizations and quadratic per-observation updates into the solve's
// critical path. The scenario then re-solves the same instance for Epochs
// epochs (the fleet nightly-replan pattern), which is where the cross-epoch
// acquisition draw cache earns its keep.
type SparseScaleConfig struct {
	Videos  int // default 6
	Servers int // default 4
	// ObsScale multiplies the paper-default profiling budget of 24
	// configurations per clip (default 10 → 240 points per metric GP).
	ObsScale int
	Epochs   int // re-solve epochs over the identical instance (default 2)
	Inducing int // inducing cap m for the sparse models (default 64)
	MaxIter  int // BO iteration cap per epoch (default 5)
	Seed     uint64
	// Exact selects exact GPs with fresh acquisition draws every epoch —
	// the "before" path the benchmark compares against. The default (false)
	// runs inducing-point sparse models with the MaxObs forgetting budget
	// pinned to the initial profile count, plus cross-epoch draw reuse.
	Exact bool
	// Fast shrinks the instance for CI smoke (fewer clips, shorter loop)
	// while keeping the 10× observation scale that the speedup gate is
	// defined at.
	Fast bool
}

func (c SparseScaleConfig) withDefaults() SparseScaleConfig {
	if c.Videos == 0 {
		c.Videos = 6
		if c.Fast {
			c.Videos = 3
		}
	}
	if c.Servers == 0 {
		c.Servers = 4
		if c.Fast {
			c.Servers = 3
		}
	}
	if c.ObsScale == 0 {
		c.ObsScale = 10
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.Inducing == 0 {
		c.Inducing = 64
	}
	if c.MaxIter == 0 {
		c.MaxIter = 5
		if c.Fast {
			c.MaxIter = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 2024
	}
	return c
}

// SparseScaleReport aggregates one scale run. The GP lifecycle counters
// come from the scheduler's gp_* metrics; DrawsReused counts acquisition
// rounds served from the cross-epoch draw cache instead of a fresh joint
// sampling pass.
type SparseScaleReport struct {
	Videos, Servers, Epochs int
	ObsPerClip              int // initial profiling observations per clip
	Inducing                int // inducing cap (0 for the exact path)
	Benefit                 float64
	Iters                   int // BO iterations of the last epoch
	GPObs                   uint64
	GPInducing              uint64
	GPForgets               uint64
	DrawsReused             uint64
}

// sparseScaleOpts builds the PaMO option set for one scale epoch. The run
// uses the true preference (PaMO+ mode), so the benefit difference between
// the exact and sparse paths isolates the outcome-model approximation
// rather than preference-learning noise.
func sparseScaleOpts(cfg SparseScaleConfig, rec *obs.Recorder) pamo.Options {
	opt := pamo.Options{
		InitProfiles: 24 * cfg.ObsScale, InitObs: 3,
		PrefPairs: 8, PrefPool: 10,
		Batch: 2, MCSamples: 16, CandPool: 12, MaxIter: cfg.MaxIter,
		Seed:        cfg.Seed,
		UseTruePref: true, TruePref: objective.UniformPreference(),
		Obs: rec,
	}
	if !cfg.Exact {
		opt.Sparse = true
		opt.SparseInducing = cfg.Inducing
		// Pin the model budget at the initial profile count: every BO
		// observation beyond it displaces the retained point whose
		// leave-one-out impact on the incumbent's posterior is smallest.
		opt.SparseMaxObs = opt.InitProfiles
	}
	return opt
}

// SparseScale runs the 10×-observation scale scenario once: Epochs
// identical re-solves of one instance, exact models + fresh draws when
// cfg.Exact, sparse models + the shared draw cache otherwise. Epoch results
// are byte-identical across epochs (same seed, same system), so on the
// sparse path every epoch after the first reuses the cached joint draws.
func SparseScale(cfg SparseScaleConfig) (SparseScaleReport, error) {
	cfg = cfg.withDefaults()
	sys := NewSystem(cfg.Videos, cfg.Servers, cfg.Seed)
	norm := objective.NewNormalizer(sys)
	rec := obs.NewRecorder(nil)
	opt := sparseScaleOpts(cfg, rec)
	if !cfg.Exact {
		opt.Draws = acq.NewDrawCache(0)
	}

	var last *pamo.Result
	for e := 0; e < cfg.Epochs; e++ {
		res, err := pamo.New(sys, nil, opt).Run()
		if err != nil {
			return SparseScaleReport{}, fmt.Errorf("sparse scale epoch %d: %w", e, err)
		}
		last = res
	}

	reg := rec.Registry()
	rep := SparseScaleReport{
		Videos: cfg.Videos, Servers: cfg.Servers, Epochs: cfg.Epochs,
		ObsPerClip:  opt.InitProfiles,
		Benefit:     opt.TruePref.Benefit(norm.Normalize(last.Best.Raw)),
		Iters:       last.Iters,
		GPObs:       reg.Counter("gp_obs_total").Value(),
		GPInducing:  reg.Counter("gp_inducing_total").Value(),
		GPForgets:   reg.Counter("gp_forget_total").Value(),
		DrawsReused: reg.Counter("acq_draws_reused_total").Value(),
	}
	if !cfg.Exact {
		rep.Inducing = cfg.Inducing
	}
	return rep, nil
}

// AblationSparseConfig parameterizes the regret-vs-exact ablation: the
// same 10×-observation instance solved with exact outcome models and with
// sparse models across inducing budgets.
type AblationSparseConfig struct {
	Videos, Servers int
	ObsScale        int
	Budgets         []int // inducing budgets m (default {8, 16, 32, 64})
	Reps            int   // default 3
	Seed            uint64
	Fast            bool
}

// AblationSparseRow is one inducing budget's paired comparison against the
// exact reference on identical instances. Regret is the mean true-benefit
// gap exact − sparse (negative means the sparse run found a better point);
// Speedup is exact wall time over sparse wall time at this budget.
type AblationSparseRow struct {
	Inducing int // 0 = the exact reference row
	Benefit  float64
	Regret   float64
	Seconds  float64
	Speedup  float64
	Forgets  uint64
}

// AblationSparse sweeps the inducing budget on the 10×-observation
// instance. Each budget solves the same Reps instances as the exact
// reference (paired seeds), so regret is a paired difference, not a
// cross-instance one.
func AblationSparse(w io.Writer, cfg AblationSparseConfig) []AblationSparseRow {
	if cfg.Reps == 0 {
		cfg.Reps = 3
		if cfg.Fast {
			cfg.Reps = 1
		}
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []int{8, 16, 32, 64}
		if cfg.Fast {
			cfg.Budgets = []int{16, 64}
		}
	}

	run := func(rep int, exact bool, m int) (float64, float64, uint64) {
		c := SparseScaleConfig{
			Videos: cfg.Videos, Servers: cfg.Servers, ObsScale: cfg.ObsScale,
			Epochs: 1, Inducing: m, Seed: cfg.Seed + uint64(rep)*997,
			Exact: exact, Fast: cfg.Fast,
		}
		t0 := time.Now()
		r, err := SparseScale(c)
		if err != nil {
			// The ablation is comparative; a failed rep contributes a
			// zero-benefit row rather than aborting the sweep.
			return 0, time.Since(t0).Seconds(), 0
		}
		return r.Benefit, time.Since(t0).Seconds(), r.GPForgets
	}

	exactB := make([]float64, cfg.Reps)
	var exactRow AblationSparseRow
	for rep := 0; rep < cfg.Reps; rep++ {
		b, s, _ := run(rep, true, 0)
		exactB[rep] = b
		exactRow.Benefit += b / float64(cfg.Reps)
		exactRow.Seconds += s / float64(cfg.Reps)
	}
	exactRow.Speedup = 1
	rows := []AblationSparseRow{exactRow}

	for _, m := range cfg.Budgets {
		var row AblationSparseRow
		row.Inducing = m
		for rep := 0; rep < cfg.Reps; rep++ {
			b, s, forgets := run(rep, false, m)
			row.Benefit += b / float64(cfg.Reps)
			row.Regret += (exactB[rep] - b) / float64(cfg.Reps)
			row.Seconds += s / float64(cfg.Reps)
			row.Forgets += forgets
		}
		row.Speedup = exactRow.Seconds / row.Seconds
		rows = append(rows, row)
	}

	t := Table{
		Title: fmt.Sprintf(
			"Ablation — sparse outcome models vs exact at 10x observations (%d reps; regret = exact − sparse true benefit)",
			cfg.Reps),
		Header: []string{"model", "benefit", "regret", "seconds", "speedup", "forgets"},
	}
	for _, r := range rows {
		name := "exact"
		if r.Inducing > 0 {
			name = fmt.Sprintf("sparse m=%d", r.Inducing)
		}
		t.Add(name, r.Benefit, r.Regret, r.Seconds, r.Speedup, r.Forgets)
	}
	t.Notes = append(t.Notes,
		"sparse rows run the MaxObs forgetting budget pinned at the initial profile count",
		"speedup is exact wall time / sparse wall time on this host")
	t.Fprint(w)
	return rows
}
