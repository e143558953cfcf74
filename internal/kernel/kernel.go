// Package kernel provides the covariance functions used by the Gaussian
// process layers: squared-exponential (RBF) and Matérn families, each with
// automatic relevance determination (per-dimension lengthscales) and an
// output variance. Hyperparameters are exposed in log space so optimizers
// can search unconstrained.
package kernel

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function on R^d.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
	// Dim returns the input dimension the kernel was built for.
	Dim() int
	// LogParams returns the hyperparameters in log space:
	// [log variance, log ℓ₁, …, log ℓ_d].
	LogParams() []float64
	// SetLogParams installs hyperparameters from log space. The length
	// must match LogParams().
	SetLogParams(p []float64)
	// Clone returns an independent copy.
	Clone() Kernel
}

// base carries the variance/lengthscale bookkeeping shared by all kernels.
type base struct {
	Variance     float64   // σ², output scale
	Lengthscales []float64 // per-dimension ℓ (ARD)
}

func newBase(dim int) base {
	ls := make([]float64, dim)
	for i := range ls {
		ls[i] = 1
	}
	return base{Variance: 1, Lengthscales: ls}
}

func (b *base) Dim() int { return len(b.Lengthscales) }

func (b *base) LogParams() []float64 {
	p := make([]float64, 1+len(b.Lengthscales))
	p[0] = math.Log(b.Variance)
	for i, l := range b.Lengthscales {
		p[i+1] = math.Log(l)
	}
	return p
}

func (b *base) SetLogParams(p []float64) {
	if len(p) != 1+len(b.Lengthscales) {
		panic(fmt.Sprintf("kernel: SetLogParams got %d params, want %d", len(p), 1+len(b.Lengthscales)))
	}
	b.Variance = math.Exp(p[0])
	for i := range b.Lengthscales {
		b.Lengthscales[i] = math.Exp(p[i+1])
	}
}

func (b *base) cloneBase() base {
	return base{Variance: b.Variance, Lengthscales: append([]float64(nil), b.Lengthscales...)}
}

// scaledSqDist returns Σ ((x_i-y_i)/ℓ_i)².
func (b *base) scaledSqDist(x, y []float64) float64 {
	var s float64
	for i, l := range b.Lengthscales {
		d := (x[i] - y[i]) / l
		s += d * d
	}
	return s
}

// RBF is the squared-exponential kernel σ²·exp(-r²/2).
type RBF struct{ base }

// NewRBF returns an RBF kernel on R^dim with unit variance and lengthscales.
func NewRBF(dim int) *RBF { return &RBF{newBase(dim)} }

// Eval implements Kernel.
func (k *RBF) Eval(x, y []float64) float64 {
	return k.Variance * math.Exp(-0.5*k.scaledSqDist(x, y))
}

// Clone implements Kernel.
func (k *RBF) Clone() Kernel { return &RBF{k.cloneBase()} }

// Matern52 is the Matérn ν=5/2 kernel
// σ²·(1+√5·r+5r²/3)·exp(-√5·r).
type Matern52 struct{ base }

// NewMatern52 returns a Matérn-5/2 kernel on R^dim.
func NewMatern52(dim int) *Matern52 { return &Matern52{newBase(dim)} }

// Eval implements Kernel.
func (k *Matern52) Eval(x, y []float64) float64 {
	r := math.Sqrt(k.scaledSqDist(x, y))
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// Clone implements Kernel.
func (k *Matern52) Clone() Kernel { return &Matern52{k.cloneBase()} }
