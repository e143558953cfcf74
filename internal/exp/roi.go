package exp

import (
	"io"

	"repro/internal/eva"
	"repro/internal/objective"
	"repro/internal/pamo"
)

// ROIConfig parameterizes the adaptive-encoding extension experiment.
type ROIConfig struct {
	Videos, Servers int
	Reps            int
	Seed            uint64
	PaMOOpt         pamo.Options
}

// ROIRow is one variant's averaged result.
type ROIRow struct {
	Variant string
	Benefit float64
	Energy  float64
	Network float64
	Acc     float64
}

// ROI runs the paper's proposed extension (conclusion: "adaptive encoding
// and segmented inference to further improve video analysis performance
// and resource efficiency"): PaMO+ searching the standard two-knob space
// versus the same search with the region-of-interest fraction as a third
// knob, under a resource-heavy preference where trimming background pixels
// should pay.
func ROI(w io.Writer, cfg ROIConfig) []ROIRow {
	if cfg.Videos == 0 {
		cfg.Videos = 8
	}
	if cfg.Servers == 0 {
		cfg.Servers = 5
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	truth := objective.UniformPreference()
	truth.W[objective.Network] = 2
	truth.W[objective.Energy] = 2

	t := Table{
		Title:  "Extension — ROI (adaptive encoding + segmented inference) as a third knob",
		Header: []string{"variant", "benefit", "power_W", "uplink_Mbps", "mAP"},
	}
	variants := []struct {
		name string
		grid []float64
	}{
		{"full-frame (paper)", nil},
		{"ROI {0.5, 0.75, 1}", []float64{0.5, 0.75, 1}},
	}
	var rows []ROIRow
	for _, v := range variants {
		var row ROIRow
		row.Variant = v.name
		n := 0
		for rep := 0; rep < cfg.Reps; rep++ {
			sys := NewSystem(cfg.Videos, cfg.Servers, cfg.Seed+uint64(rep)*23)
			norm := objective.NewNormalizer(sys)
			opt := cfg.PaMOOpt
			opt.Seed = cfg.Seed + uint64(rep)
			opt.TruePref = &truth
			opt.ROIGrid = v.grid
			res, err := pamo.New(sys, nil, opt).Run()
			if err != nil {
				continue
			}
			out := eva.Evaluate(sys, res.Best.Decision)
			row.Benefit += truth.Benefit(norm.Normalize(out))
			row.Energy += out[objective.Energy]
			row.Network += out[objective.Network] / 1e6
			row.Acc += out[objective.Accuracy]
			n++
		}
		if n > 0 {
			row.Benefit /= float64(n)
			row.Energy /= float64(n)
			row.Network /= float64(n)
			row.Acc /= float64(n)
		}
		rows = append(rows, row)
		t.Add(row.Variant, row.Benefit, row.Energy, row.Network, row.Acc)
	}
	t.Notes = append(t.Notes, "preference: network and energy weighted 2×; the ROI knob trades a small mAP loss for large resource savings")
	t.Fprint(w)
	return rows
}
