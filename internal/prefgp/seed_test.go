package prefgp

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/stats"
)

// This file keeps the allocating Laplace fit and posterior formula that Fit
// and PredictWith replaced, as their oracles: both must reproduce them bit
// for bit, scratch reuse and transposed reads notwithstanding.

// seedPosterior is a Laplace posterior computed by seedFit.
type seedPosterior struct {
	ghat, kinvGhat mat.Vector
	kinv, ainv     *mat.Matrix
	evidence       float64
}

// seedFit is Fit as first written: fresh matrices and vectors per Newton
// step.
func seedFit(t *testing.T, m *Model) seedPosterior {
	t.Helper()
	n := len(m.points)
	k := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := m.Kern.Eval(m.points[i], m.points[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	ck, err := mat.CholJitter(k)
	if err != nil {
		t.Fatal(err)
	}
	kinv := ck.Inverse()
	c := 1 / (math.Sqrt2 * m.Lambda)
	gradHess := func(g mat.Vector) (mat.Vector, *mat.Matrix) {
		grad, w := mat.NewVector(n), mat.NewMatrix(n, n)
		m.nllGradHess(grad, w, g, c)
		return grad, w
	}
	psi := func(gv mat.Vector) float64 {
		s := 0.5 * gv.Dot(kinv.MulVec(gv))
		for _, cp := range m.comps {
			s -= stats.NormLogCDF(c * (gv[cp.Winner] - gv[cp.Loser]))
		}
		return s
	}
	g := mat.NewVector(n)
	cur := psi(g)
	for iter := 0; iter < 100; iter++ {
		grad, w := gradHess(g)
		gradPsi := grad.Add(kinv.MulVec(g))
		ch, err := mat.CholJitter(w.Add(kinv))
		if err != nil {
			t.Fatal(err)
		}
		step := ch.SolveVec(gradPsi)
		tt := 1.0
		var next mat.Vector
		improved := false
		for ls := 0; ls < 30; ls++ {
			next = g.Clone().AddScaled(-tt, step)
			if v := psi(next); v < cur {
				cur, improved = v, true
				break
			}
			tt /= 2
		}
		if !improved {
			break
		}
		delta := 0.0
		for i := range g {
			delta = math.Max(delta, math.Abs(next[i]-g[i]))
		}
		g = next
		if delta < 1e-8 {
			break
		}
	}
	_, w := gradHess(g)
	ca, err := mat.CholJitter(w.Add(kinv.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	ainv := ca.Inverse()
	ainv.Symmetrize()
	return seedPosterior{
		ghat: g, kinvGhat: kinv.MulVec(g), kinv: kinv, ainv: ainv,
		evidence: -cur - 0.5*(ck.LogDet()+ca.LogDet()),
	}
}

// seedPredict is Predict as first written: fresh matrices, K⁻¹ĝ per call,
// and the covariance read column-wise through At.
func seedPredict(m *Model, ys [][]float64) (mat.Vector, *mat.Matrix) {
	n, q := len(m.points), len(ys)
	ks := mat.NewMatrix(n, q)
	for i := 0; i < n; i++ {
		for j := 0; j < q; j++ {
			ks.Set(i, j, m.Kern.Eval(m.points[i], ys[j]))
		}
	}
	kinvKs := m.kinv.Mul(ks)
	kinvGhat := m.kinv.MulVec(m.ghat)
	mu := mat.NewVector(q)
	for j := 0; j < q; j++ {
		for i := 0; i < n; i++ {
			mu[j] += ks.At(i, j) * kinvGhat[i]
		}
	}
	cov := mat.NewMatrix(q, q)
	aKinvKs := m.ainv.Mul(kinvKs)
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			v := m.Kern.Eval(ys[a], ys[b])
			for i := 0; i < n; i++ {
				v -= ks.At(i, a) * kinvKs.At(i, b)
				v += kinvKs.At(i, a) * aKinvKs.At(i, b)
			}
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return mu, cov
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestFitMatchesSeedFit grows one model comparison by comparison — so
// every Fit reuses the scratch of a smaller or equal earlier one — and
// holds each fit to the allocating oracle bit for bit.
func TestFitMatchesSeedFit(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := stats.NewRNG(seed)
		m := NewModel(kernel.NewRBF(3), 0.05)
		var pts [][]float64
		for round := 0; round < 12; round++ {
			y := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			if round%4 == 3 {
				p := pts[len(pts)-1]
				y = []float64{p[0] + 1e-10, p[1], p[2]} // near-duplicate point
			}
			pts = append(pts, y)
			m.AddPoint(y)
			if len(pts) < 2 {
				continue
			}
			a, b := rng.IntN(len(pts)), rng.IntN(len(pts))
			if a == b {
				continue
			}
			if trueUtility(pts[a]) < trueUtility(pts[b]) {
				a, b = b, a
			}
			if err := m.AddComparison(a, b); err != nil {
				t.Fatal(err)
			}
			want := seedFit(t, m)
			if err := m.Fit(); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "ghat", m.ghat, want.ghat)
			sameBits(t, "K⁻¹ĝ", m.kinvGhat, want.kinvGhat)
			sameBits(t, "K⁻¹", m.kinv.Data, want.kinv.Data)
			sameBits(t, "A⁻¹", m.ainv.Data, want.ainv.Data)
			sameBits(t, "evidence", []float64{m.evidence}, []float64{want.evidence})
		}
	}
}

// TestPredictWithMatchesSeedFormula holds PredictWith, on one reused and
// never-zeroed workspace, to the allocating formula bit for bit: random
// queries, the model's own points, exact repeats and near-duplicates.
func TestPredictWithMatchesSeedFormula(t *testing.T) {
	ws := mat.NewWorkspace()
	for seed := uint64(1); seed < 6; seed++ {
		m, pts := buildModel(t, 6+int(seed), seed)
		rng := stats.NewRNG(100 + seed)
		for trial := 0; trial < 8; trial++ {
			q := 1 + rng.IntN(9)
			ys := make([][]float64, q)
			for j := range ys {
				switch {
				case j > 0 && trial%4 == 1:
					ys[j] = ys[rng.IntN(j)] // exact repeat
				case trial%4 == 2:
					ys[j] = pts[rng.IntN(len(pts))] // a training point
				case trial%4 == 3:
					p := pts[rng.IntN(len(pts))] // near-duplicate of one
					ys[j] = []float64{p[0] + 1e-12*rng.NormFloat64(), p[1], p[2] - 1e-13}
				default:
					ys[j] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				}
			}
			wantMu, wantCov := seedPredict(m, ys)
			ws.Reset()
			mu, cov := m.PredictWith(ws, ys)
			sameBits(t, "mu", mu, wantMu)
			sameBits(t, "cov", cov.Data, wantCov.Data)
			pmu, pcov := m.Predict(ys)
			sameBits(t, "Predict mu", pmu, wantMu)
			sameBits(t, "Predict cov", pcov.Data, wantCov.Data)
		}
	}
}
