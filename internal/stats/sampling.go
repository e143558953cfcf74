package stats

import (
	"math/rand/v2"
)

// NewRNG returns a seeded PCG-backed random source. All stochastic code in
// this repository takes an explicit *rand.Rand so experiments are
// reproducible.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// SplitMix64 is the finalizer of the splitmix64 generator: a bijective
// mixing of the 64-bit input whose outputs pass statistical tests even on
// sequential inputs. Use it to derive independent PCG seed words from
// structured counters — because it is a bijection, distinct inputs can
// never collide, unlike ad-hoc XOR/multiply schemes (Seed^(k·GOLDEN) maps
// both (0, 0) and (GOLDEN, 1) to the same stream).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LatinHypercube returns n stratified samples in [0,1)^d: each dimension is
// divided into n equal strata and each stratum is hit exactly once.
func LatinHypercube(n, d int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	for j := 0; j < d; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			out[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return out
}
