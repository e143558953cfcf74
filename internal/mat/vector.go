// Package mat provides the dense linear algebra needed by the Gaussian
// process and Bayesian optimization layers: vectors, row-major matrices,
// Cholesky factorization, and triangular solves. It is intentionally small
// and allocation-conscious rather than a general BLAS replacement.
package mat

import "fmt"

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. The lengths must match.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled sets v = v + a*w in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Sub sets v = v - w in place and returns v.
func (v Vector) Sub(w Vector) Vector { return v.AddScaled(-1, w) }

// Add sets v = v + w in place and returns v.
func (v Vector) Add(w Vector) Vector { return v.AddScaled(1, w) }

// Max returns the maximum element of v. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum element of v. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("mat: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}
