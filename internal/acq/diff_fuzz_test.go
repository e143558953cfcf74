package acq

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/prefgp"
)

// replaySampler replays rows of a fixed draw matrix z[sample][point]. Points
// are index-encoded — point i is []float64{float64(i)} — so any subset of
// the universe samples exactly the corresponding columns of z, in request
// order, ignoring the rng. This makes the per-trial acquisitions and the
// shared-sample scorer integrate over the *same* draws, turning their
// statistical equivalence into a deterministic, checkable identity.
type replaySampler struct {
	z [][]float64
}

func (r replaySampler) SampleBenefit(points [][]float64, nSamples int, _ *rand.Rand) [][]float64 {
	if nSamples > len(r.z) {
		nSamples = len(r.z)
	}
	out := make([][]float64, nSamples)
	for s := 0; s < nSamples; s++ {
		row := make([]float64, len(points))
		for j, p := range points {
			row[j] = r.z[s][int(p[0])]
		}
		out[s] = row
	}
	return out
}

func point(i int) []float64 { return []float64{float64(i)} }

// FuzzSharedVsPerTrial differentially fuzzes the shared-sample greedy batch
// construction against the per-trial Monte-Carlo acquisitions. Restricted to
// a common draw matrix, both paths accumulate the identical per-sample terms
// in the identical order, so the scores must agree to float round-off and the
// greedy argmax choices must match exactly — any divergence is a real bug in
// one of the two estimators (this is the harness that would have caught an
// incumbent-column or hinge-baseline mix-up in SharedScorer).
func FuzzSharedVsPerTrial(f *testing.F) {
	f.Add(uint64(1), 6, 8, 2, 2, byte(0))
	f.Add(uint64(42), 10, 16, 0, 3, byte(1))
	f.Add(uint64(7), 4, 5, 3, 1, byte(2))
	f.Add(uint64(1234), 12, 32, 1, 3, byte(3))
	f.Fuzz(func(t *testing.T, seed uint64, nPts, nSamples, nObs, batch int, kind byte) {
		nPts = 2 + abs(nPts)%11         // universe size 2..12
		nSamples = 1 + abs(nSamples)%32 // draws 1..32
		nObs = abs(nObs) % 4
		if nObs >= nPts {
			nObs = nPts - 1
		}
		batch = 1 + abs(batch)%3
		nCand := nPts - nObs
		if batch > nCand {
			batch = nCand
		}

		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		z := make([][]float64, nSamples)
		for s := range z {
			z[s] = make([]float64, nPts)
			for j := range z[s] {
				z[s][j] = rng.NormFloat64()
			}
		}
		rs := replaySampler{z: z}

		// Candidates are columns [0, nCand), observed points the rest.
		obsPts := make([][]float64, nObs)
		obsCols := make([]int, nObs)
		for k := 0; k < nObs; k++ {
			obsPts[k] = point(nCand + k)
			obsCols[k] = nCand + k
		}
		const beta = 1.5
		best := z[0][0] // arbitrary but deterministic qEI incumbent value

		var sc *SharedScorer
		switch kind % 4 {
		case 0:
			sc = NewSharedQNEI(z, obsCols)
		case 1:
			sc = NewSharedQEI(z, best)
		case 2:
			sc = NewSharedQSR(z)
		default:
			sc = NewSharedQUCB(z, beta)
		}
		perTrial := func(trial [][]float64) float64 {
			switch kind % 4 {
			case 0:
				return QNEI(rs, trial, obsPts, nSamples, rng)
			case 1:
				return QEI(rs, trial, best, nSamples, rng)
			case 2:
				return QSR(rs, trial, nSamples, rng)
			default:
				return QUCB(rs, trial, beta, nSamples, rng)
			}
		}

		var committed [][]float64
		inBatch := make([]bool, nCand)
		for step := 0; step < batch; step++ {
			bestShared, bestTrial := math.Inf(-1), math.Inf(-1)
			argShared, argTrial := -1, -1
			for c := 0; c < nCand; c++ {
				if inBatch[c] {
					continue
				}
				sv := sc.Score(c)
				trial := append(append([][]float64{}, committed...), point(c))
				tv := perTrial(trial)
				if d := math.Abs(sv - tv); d > 1e-12*(1+math.Abs(tv)) {
					t.Fatalf("step %d cand %d kind %d: shared %v vs per-trial %v (Δ=%v)",
						step, c, kind%4, sv, tv, d)
				}
				if sv > bestShared {
					bestShared, argShared = sv, c
				}
				if tv > bestTrial {
					bestTrial, argTrial = tv, c
				}
			}
			if argShared != argTrial {
				t.Fatalf("step %d kind %d: greedy argmax diverged: shared picked %d (%v), per-trial %d (%v)",
					step, kind%4, argShared, bestShared, argTrial, bestTrial)
			}
			sc.Add(argShared)
			committed = append(committed, point(argShared))
			inBatch[argShared] = true
		}
	})
}

// FuzzEUBOScanVsPairwise differentially fuzzes the batched EUBO scan
// against one two-point posterior per pair. Column j of the batch
// posterior depends only on query j, so the batched scan must pick the
// same pair with the same score bits, on pools that repeat points (the
// learner's coincident pool entries), reuse the model's own points, and
// skip an arbitrary set of already-asked pairs.
func FuzzEUBOScanVsPairwise(f *testing.F) {
	f.Add(uint64(1), 6, 4, uint64(0), byte(0))
	f.Add(uint64(42), 10, 8, uint64(0x5a5a), byte(3))
	f.Add(uint64(7), 4, 3, uint64(0x3f), byte(1))
	f.Add(uint64(99), 8, 12, uint64(0xffffffff), byte(2))
	f.Fuzz(func(t *testing.T, seed uint64, nPool, nComps int, askedMask uint64, dup byte) {
		nPool = 2 + abs(nPool)%9    // pool size 2..10
		nComps = 1 + abs(nComps)%12 // comparisons 1..12
		rng := rand.New(rand.NewPCG(seed, 0xeab0))
		const dim = 3
		rand3 := func() []float64 { return []float64{rng.Float64(), rng.Float64(), rng.Float64()} }
		k := kernel.NewRBF(dim)
		p := k.LogParams()
		p[0] = 1.4
		k.SetLogParams(p)
		m := prefgp.NewModel(k, 0.03)
		var model [][]float64
		for i := 0; i < 2+nComps/2; i++ {
			y := rand3()
			model = append(model, y)
			m.AddPoint(y)
		}
		for c := 0; c < nComps; c++ {
			a, b := rng.IntN(len(model)), rng.IntN(len(model))
			if a == b {
				b = (a + 1) % len(model)
			}
			if err := m.AddComparison(a, b); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Fit(); err != nil {
			t.Skip(err)
		}
		pool := make([][]float64, nPool)
		for i := range pool {
			switch {
			case i > 0 && int(dup)%4 == 1 && i%3 == 0:
				pool[i] = pool[rng.IntN(i)] // a coincident pool entry
			case int(dup)%4 == 2 && i < len(model):
				pool[i] = model[i] // a point the model was fitted on
			case int(dup)%4 == 3:
				y := model[rng.IntN(len(model))] // a near-duplicate of one
				pool[i] = []float64{y[0] + 1e-9*rng.NormFloat64(), y[1], y[2]}
			default:
				pool[i] = rand3()
			}
		}
		bit := 0
		asked := map[[2]int]bool{}
		for i := 0; i < nPool; i++ {
			for j := i + 1; j < nPool; j++ {
				if askedMask>>(bit%64)&1 == 1 {
					asked[[2]int{i, j}] = true
				}
				bit++
			}
		}
		skip := func(i, j int) bool { return asked[[2]int{i, j}] }
		gi, gj, gv := SelectEUBOPairExcept(m, pool, skip)
		wi, wj, wv := selectPairwise(m, pool, skip)
		if gi != wi || gj != wj || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("batched scan (%d, %d, %v), pairwise (%d, %d, %v)", gi, gj, gv, wi, wj, wv)
		}
		if remaining := nPool*(nPool-1)/2 - len(asked); (gi < 0) != (remaining == 0) {
			t.Fatalf("returned (%d, %d) with %d pairs unasked", gi, gj, remaining)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
