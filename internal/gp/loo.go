package gp

import "math"

// LeaveOneOut returns the leave-one-out predictive mean and variance for
// every training point using the standard closed form (Rasmussen &
// Williams, Eq. 5.10–5.12):
//
//	μᵢ = yᵢ − αᵢ / [K⁻¹]ᵢᵢ,   σᵢ² = 1 / [K⁻¹]ᵢᵢ,
//
// where K here includes the observation noise, for target column col. The
// variances include observation noise (they are predictive for the
// observed targets) and are the same for every column.
func (g *Multi) LeaveOneOut(col int) (mu, variance []float64) {
	if g.chol == nil {
		panic(ErrNotFitted)
	}
	y, alpha := g.cols[col].y, g.cols[col].alpha
	n := len(g.x)
	kinv := g.chol.Inverse()
	mu = make([]float64, n)
	variance = make([]float64, n)
	for i := 0; i < n; i++ {
		d := kinv.At(i, i)
		if d <= 0 {
			d = 1e-12
		}
		variance[i] = 1 / d
		mu[i] = y[i] - alpha[i]/d
	}
	return mu, variance
}

// LeaveOneOut returns the leave-one-out predictive means and variances; see
// Multi.LeaveOneOut.
func (g *GP) LeaveOneOut() (mu, variance []float64) { return g.Multi.LeaveOneOut(0) }

// LOOLogLikelihood returns the sum of leave-one-out predictive log
// densities — a cross-validation alternative to the marginal likelihood
// for hyperparameter diagnostics — of target column col.
func (g *Multi) LOOLogLikelihood(col int) float64 {
	mu, variance := g.LeaveOneOut(col)
	y := g.cols[col].y
	var s float64
	for i := range mu {
		r := y[i] - mu[i]
		s += -0.5*math.Log(2*math.Pi*variance[i]) - r*r/(2*variance[i])
	}
	return s
}

// LOOLogLikelihood returns the summed leave-one-out predictive log density;
// see Multi.LOOLogLikelihood.
func (g *GP) LOOLogLikelihood() float64 { return g.Multi.LOOLogLikelihood(0) }
