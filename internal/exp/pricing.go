package exp

import (
	"io"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pricing"
)

// PricingConfig parameterizes the pricing-rule experiment — the paper's
// motivating scenario made concrete: the true benefit is a *non-linear*
// billing scheme (tiered electricity, metered uplink, SLA revenue), and we
// compare PaMO's comparison-learned preference against the classical
// fixed-weight definitions of the paper's reference [10].
type PricingConfig struct {
	Videos, Servers int
	Reps            int
	Seed            uint64
	PaMOOpt         pamo.Options
}

// PricingRow is one scorer's average hourly net benefit.
type PricingRow struct {
	Method  string
	Benefit float64 // currency per hour, ground truth billing
}

// Pricing runs the weight-rules ablation: every method uses the same PaMO
// BO machinery; they differ only in how candidate outcomes are scored —
// a preference model learned from the billing oracle's comparisons, or a
// fixed linear weighting (Equal / rank-order-centroid / rank-sum), or the
// billing scheme itself (oracle upper reference).
func Pricing(w io.Writer, cfg PricingConfig) []PricingRow {
	if cfg.Videos == 0 {
		cfg.Videos = 8
	}
	if cfg.Servers == 0 {
		cfg.Servers = 5
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	t := Table{
		Title:  "Pricing ablation — learned preference vs classical fixed weights (hourly net benefit)",
		Header: []string{"scorer", "net_benefit_per_hour"},
	}

	// A sensible importance ranking a human might guess for the billing:
	// energy > accuracy > network > latency > compute.
	guessRanks := [objective.K]int{4, 2, 3, 5, 1}
	roc, err := objective.ROCWeights(guessRanks)
	if err != nil {
		panic(err)
	}
	rs, err := objective.RankSumWeights(guessRanks)
	if err != nil {
		panic(err)
	}
	// Scale the unit-sum rule weights to Eq. 13's magnitude (sum = K).
	for k := 0; k < objective.K; k++ {
		roc.W[k] *= objective.K
		rs.W[k] *= objective.K
	}

	methods := []struct {
		name    string
		weights *objective.Preference // nil = learned preference
	}{
		{"learned (PaMO)", nil},
		{"equal weights", ptr(objective.UniformPreference())},
		{"ROC weights", ptr(roc)},
		{"rank-sum weights", ptr(rs)},
	}

	var rows []PricingRow
	for _, m := range methods {
		var sum float64
		n := 0
		for rep := 0; rep < cfg.Reps; rep++ {
			sys := NewSystem(cfg.Videos, cfg.Servers, cfg.Seed+uint64(rep)*17)
			norm := objective.NewNormalizer(sys)
			billing := pricing.CityBilling(cfg.Videos)

			opt := cfg.PaMOOpt
			opt.Seed = cfg.Seed + uint64(rep)
			var res *pamo.Result
			var err error
			if m.weights == nil {
				dm := &pricing.Oracle{Billing: billing, Norm: norm}
				// The billing benefit has sharp non-linearities (SLA
				// thresholds, tariff tiers): give the learned model more
				// comparisons and evidence-tuned hyperparameters.
				if opt.PrefPairs == 0 {
					opt.PrefPairs = 30
				}
				opt.OptimizePrefHyper = true
				res, err = pamo.New(sys, dm, opt).Run()
			} else {
				opt.TruePref = m.weights
				res, err = pamo.New(sys, nil, opt).Run()
			}
			if err != nil {
				continue
			}
			sum += billing.NetBenefit(eva.Evaluate(sys, res.Best.Decision))
			n++
		}
		row := PricingRow{Method: m.name}
		if n > 0 {
			row.Benefit = sum / float64(n)
		}
		rows = append(rows, row)
		t.Add(m.name, row.Benefit)
	}
	t.Notes = append(t.Notes,
		"true benefit: tiered electricity + metered uplink + SLA revenue (internal/pricing.CityBilling)",
		"fixed-weight methods optimize a linear Eq. 13 guess; the learned method asks the billing oracle comparisons")
	t.Fprint(w)
	return rows
}

func ptr(p objective.Preference) *objective.Preference { return &p }
