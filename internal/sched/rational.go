// Package sched implements the paper's Section 4.1: the group-based
// heuristic zero-jitter scheduling algorithm (Algorithm 1), the high-rate
// stream splitting of Section 3, and the Const1/Const2 feasibility checks.
//
// Frame periods are exact rationals (seconds = Num/Den), so the greatest
// common divisor in Const2 — gcd(1/s₁, …, 1/s_K) = 1/lcm(s₁, …, s_K) — is
// computed without floating-point error. Processing times are float64s and
// hence dyadic rationals; every Const1/Const2 decision in the repository
// sums them in one exact type, ProcSum.
package sched

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Rational is an exact non-negative rational number Num/Den (seconds).
type Rational struct {
	Num, Den int64
}

// RatFromFPS returns the frame period 1/fps as a rational.
func RatFromFPS(fps int64) Rational {
	if fps <= 0 {
		panic(fmt.Sprintf("sched: non-positive fps %d", fps))
	}
	return Rational{Num: 1, Den: fps}
}

// Rat returns num/den reduced to lowest terms.
func Rat(num, den int64) Rational {
	if den <= 0 || num < 0 {
		panic(fmt.Sprintf("sched: invalid rational %d/%d", num, den))
	}
	return Rational{Num: num, Den: den}.reduce()
}

func (r Rational) reduce() Rational {
	if r.Num == 0 {
		return Rational{0, 1}
	}
	g := gcd64(r.Num, r.Den)
	return Rational{r.Num / g, r.Den / g}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }

// Float returns the rational as a float64.
func (r Rational) Float() float64 { return float64(r.Num) / float64(r.Den) }

// Mul returns r scaled by the positive integer k.
func (r Rational) Mul(k int64) Rational {
	if k <= 0 {
		panic(fmt.Sprintf("sched: non-positive multiplier %d", k))
	}
	return Rational{r.Num * k, r.Den}.reduce()
}

// Cmp returns -1, 0, or 1 as r <, ==, > s.
func (r Rational) Cmp(s Rational) int {
	l := r.Num * s.Den
	m := s.Num * r.Den
	switch {
	case l < m:
		return -1
	case l > m:
		return 1
	default:
		return 0
	}
}

// RatGCD returns the exact greatest common divisor of two rationals:
// gcd(a/b, c/d) = gcd(a·d, c·b)/(b·d).
func RatGCD(a, b Rational) Rational {
	if a.Num == 0 {
		return b.reduce()
	}
	if b.Num == 0 {
		return a.reduce()
	}
	num := gcd64(a.Num*b.Den, b.Num*a.Den)
	return Rational{num, a.Den * b.Den}.reduce()
}

// IsMultipleOf reports whether r = t·s for some positive integer t.
func (r Rational) IsMultipleOf(s Rational) bool {
	if s.Num == 0 {
		return false
	}
	// r/s = (r.Num·s.Den)/(r.Den·s.Num) must be a positive integer.
	num := r.Num * s.Den
	den := r.Den * s.Num
	return num > 0 && num%den == 0
}

// String renders the rational for diagnostics.
func (r Rational) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// ProcSum is an exact sum of float64 processing times, held as num/2^shift
// in a reused big.Int. Every finite float64 is m·2^e with |m| < 2^53, so
// summing over a common power-of-two denominator is lossless and — unlike
// a general rational, which normalises by a GCD on every add — costs one
// shift and one add. Budgets are compared by cross-multiplication, so every
// Const1/Const2 decision in the repository is exact and allocation-free
// once the sum has grown. The zero value is the empty sum.
//
// A ProcSum owns the big.Int scratch its comparisons run in, so it belongs
// to one goroutine; other sums are only read (Set's argument).
type ProcSum struct {
	num     big.Int
	shift   uint
	a, b, c big.Int // scratch
}

// Reset empties the sum, keeping its storage.
func (s *ProcSum) Reset() {
	s.num.SetInt64(0)
	s.shift = 0
}

// Set copies o into s.
func (s *ProcSum) Set(o *ProcSum) {
	s.num.Set(&o.num)
	s.shift = o.shift
}

// Add accumulates p exactly. NaN and ±Inf report false and leave the sum
// unchanged; callers treat them as unverifiable, hence infeasible.
func (s *ProcSum) Add(p float64) bool { return s.addMul(p, nil) }

// addMul accumulates p·k exactly for an integer k (nil means 1).
func (s *ProcSum) addMul(p float64, k *big.Int) bool {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return false
	}
	m, e := dyadic(p)
	t := s.a.SetInt64(m)
	if k != nil {
		t = s.b.Mul(t, k)
	}
	s.addShifted(t, e)
	return true
}

// addShifted adds t·2^e, rescaling whichever side has the coarser
// power-of-two denominator. t is scratch and is clobbered.
func (s *ProcSum) addShifted(t *big.Int, e int) {
	if e >= 0 {
		t.Lsh(t, uint(e)+s.shift)
	} else if d := uint(-e); d > s.shift {
		s.num.Lsh(&s.num, d-s.shift)
		s.shift = d
	} else {
		t.Lsh(t, s.shift-d)
	}
	s.num.Add(&s.num, t)
}

// Within reports Σ ≤ budget·speed exactly. The speed factor is a float64
// and hence dyadic, so the scaled budget is an exact rational too. An
// empty budget admits only a non-positive sum; a non-finite or
// non-positive speed admits nothing.
func (s *ProcSum) Within(budget Rational, speed float64) bool {
	if budget.Num == 0 {
		return s.num.Sign() <= 0
	}
	return s.within(s.c.SetInt64(budget.Num), budget.Den, speed)
}

// within reports Σ·den ≤ bnum·speed for a positive integer bnum and a
// positive den. With speed = ms·2^es and Σ = num/2^shift that is
// num·den ≤ bnum·ms·2^(shift+es), one cross-multiplication with the power
// of two moved to whichever side keeps it non-negative. bnum may be s.c.
func (s *ProcSum) within(bnum *big.Int, den int64, speed float64) bool {
	if !(speed > 0) || math.IsInf(speed, 1) {
		return false
	}
	ms, es := dyadic(speed)
	rhs := &s.b
	if ms == 1 {
		rhs.Set(bnum)
	} else {
		rhs.Mul(bnum, s.a.SetInt64(ms))
	}
	lhs := &s.num
	if den != 1 {
		lhs = s.a.Mul(&s.num, s.c.SetInt64(den))
	}
	if sh := int(s.shift) + es; sh >= 0 {
		rhs.Lsh(rhs, uint(sh))
	} else {
		lhs = s.a.Lsh(lhs, uint(-sh))
	}
	return lhs.Cmp(rhs) <= 0
}

// dyadic splits a finite float64 into f = m·2^e exactly, with m odd (or
// zero), so exact sums and budgets carry no redundant low zero bits.
func dyadic(f float64) (m int64, e int) {
	if f == 0 {
		return 0, 0
	}
	fr, exp := math.Frexp(f) // f = fr·2^exp, |fr| ∈ [0.5, 1)
	m, e = int64(fr*(1<<53)), exp-53
	tz := bits.TrailingZeros64(uint64(m))
	return m >> tz, e + tz
}
