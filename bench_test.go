// Benchmarks that regenerate each figure of the paper's evaluation on a
// reduced budget, one testing.B target per table/figure (see DESIGN.md's
// experiment index). Run the full-size versions with cmd/pamo-bench.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/exp"
	"repro/internal/pamo"
)

// fastOpts shrinks PaMO's budgets so the benchmark suite stays in CI range.
func fastOpts() pamo.Options {
	return pamo.Options{
		InitProfiles: 12, InitObs: 3, PrefPairs: 8, PrefPool: 10,
		Batch: 2, MCSamples: 12, CandPool: 8, MaxIter: 3,
	}
}

func BenchmarkFig2Profile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig2(io.Discard, 2024)
	}
}

func BenchmarkFig3Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig3(io.Discard)
	}
}

func BenchmarkFig4Jitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig4(io.Discard)
	}
}

func BenchmarkFig6Weights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig6(io.Discard, exp.Fig6Config{
			Videos: 6, Servers: 4, Weights: []float64{0.2, 3.2}, Reps: 1,
			Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

func BenchmarkFig7Scale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig7(io.Discard, exp.Fig7Config{
			Nodes: []int{5}, Videos: []int{8}, Reps: 1,
			Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

// BenchmarkAcqCandPool runs the Fig7 workload with the candidate pool as
// the scaling axis, isolating the selectBatch-dominated acquisition cost
// the shared-sample path optimizes (see DESIGN.md, "Performance").
func BenchmarkAcqCandPool(b *testing.B) {
	for _, pool := range []int{8, 64} {
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			opt := fastOpts()
			opt.CandPool = pool
			for i := 0; i < b.N; i++ {
				exp.Fig7(io.Discard, exp.Fig7Config{
					Nodes: []int{5}, Videos: []int{8}, Reps: 1,
					Seed: 2024, PaMOOpt: opt,
				})
			}
		})
	}
}

func BenchmarkFig8OutcomeR2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig8(io.Discard, exp.Fig8Config{
			TrainSizes: []int{200}, Reps: 2, Seed: 2024,
		})
	}
}

func BenchmarkFig9PrefAcc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig9(io.Discard, exp.Fig9Config{
			Pairs: []int{9}, Reps: 2, Seed: 2024,
		})
	}
}

func BenchmarkFig10aWeightSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig10a(io.Discard, exp.Fig10aConfig{
			Weights: []float64{0.2, 5}, Setups: [][2]int{{4, 6}},
			Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

func BenchmarkFig10bThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig10b(io.Discard, exp.Fig10bConfig{
			Thresholds: []float64{0.1}, Setups: [][2]int{{4, 6}},
			Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

func BenchmarkAblationAcquisition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationAcq(io.Discard, exp.AblationAcqConfig{
			Videos: 5, Servers: 4, Reps: 1, Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

func BenchmarkAblationEUBO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationEUBO(io.Discard, []int{6}, 2, 2024)
	}
}

func BenchmarkAblationPricing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Pricing(io.Discard, exp.PricingConfig{
			Videos: 5, Servers: 4, Reps: 1, Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}

func BenchmarkAblationZeroJitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationZeroJitter(io.Discard, 8, 5, 2024)
	}
}

func BenchmarkAblationHungarian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.AblationHungarian(io.Discard, 8, 5, 2024)
	}
}

func BenchmarkAblationFeasibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Feasibility(io.Discard, exp.FeasibilityConfig{Instances: 30, Seed: 2024})
	}
}

func BenchmarkSensitivityNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.NoiseSensitivity(io.Discard, exp.NoiseConfig{
			Videos: 5, Servers: 4, Levels: []float64{0.02}, Reps: 1,
			Seed: 2024, PaMOOpt: fastOpts(),
		})
	}
}
