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

// lcm64 is the least common multiple of two positive integers. It panics
// when the lcm leaves int64.
func lcm64(a, b int64) int64 {
	l, ok := mul64(a/gcd64(a, b), b)
	if !ok {
		panic(fmt.Sprintf("sched: lcm of %d and %d leaves int64", a, b))
	}
	return l
}

// mul64 returns a·b for non-negative a and b, with ok false when the
// product leaves int64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// Float returns the rational as a float64.
func (r Rational) Float() float64 { return float64(r.Num) / float64(r.Den) }

// Mul returns r scaled by the positive integer k. It panics when the
// reduced product's numerator leaves int64.
func (r Rational) Mul(k int64) Rational {
	if k <= 0 {
		panic(fmt.Sprintf("sched: non-positive multiplier %d", k))
	}
	g := gcd64(k, r.Den)
	num, ok := mul64(r.Num, k/g)
	if !ok {
		panic(fmt.Sprintf("sched: %v·%d leaves int64", r, k))
	}
	return Rational{num, r.Den / g}.reduce()
}

// Cmp returns -1, 0, or 1 as r <, ==, > s, comparing the cross products
// r.Num·s.Den and s.Num·r.Den in 128 bits.
func (r Rational) Cmp(s Rational) int {
	lh, ll := bits.Mul64(uint64(r.Num), uint64(s.Den))
	mh, ml := bits.Mul64(uint64(s.Num), uint64(r.Den))
	switch {
	case lh < mh || lh == mh && ll < ml:
		return -1
	case lh > mh || lh == mh && ll > ml:
		return 1
	default:
		return 0
	}
}

// RatGCD returns the exact greatest common divisor of two rationals:
// gcd(a/b, c/d) = gcd(a·d, c·b)/(b·d), reduced. When a product leaves
// int64 it is formed from the reduced operands instead, as
// gcd(a, c)/lcm(b, d), which needs no product but the lcm; it panics when
// that lcm, the gcd's denominator, leaves int64.
func RatGCD(a, b Rational) Rational {
	if a.Num == 0 {
		return b.reduce()
	}
	if b.Num == 0 {
		return a.reduce()
	}
	x, okx := mul64(a.Num, b.Den)
	y, oky := mul64(b.Num, a.Den)
	den, okd := mul64(a.Den, b.Den)
	if okx && oky && okd {
		return Rational{gcd64(x, y), den}.reduce()
	}
	a, b = a.reduce(), b.reduce()
	return Rational{gcd64(a.Num, b.Num), lcm64(a.Den, b.Den)}
}

// IsMultipleOf reports whether r = t·s for some positive integer t: r/s =
// (r.Num·s.Den)/(r.Den·s.Num) must be a positive integer. When a product
// leaves int64 it decides on the reduced operands instead, where the
// quotient is an integer exactly when s.Num divides r.Num and r.Den divides
// s.Den.
func (r Rational) IsMultipleOf(s Rational) bool {
	if s.Num == 0 || r.Num <= 0 {
		return false
	}
	num, okn := mul64(r.Num, s.Den)
	den, okd := mul64(r.Den, s.Num)
	if okn && okd {
		return num%den == 0
	}
	r, s = r.reduce(), s.reduce()
	return r.Num%s.Num == 0 && s.Den%r.Den == 0
}

// String renders the rational for diagnostics.
func (r Rational) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// ProcSum is an exact sum of float64 processing times, held as a numerator
// over 2^shift. Every finite float64 is m·2^e with |m| < 2^53, so summing
// over a common power-of-two denominator is lossless and — unlike a general
// rational, which normalises by a GCD on every add — costs one shift and one
// add. Budgets are compared by cross-multiplication, so every Const1/Const2
// decision in the repository is exact. The zero value is the empty sum.
//
// The numerator lives in one of two tiers of the same arithmetic. It starts
// in w, a two's-complement integer of three 64-bit words added and
// multiplied with math/bits: one workload's processing times span a few
// binades, so the sum fits there, and an Add or a Within costs a few ns
// (a Within's cross-products always fit four words). When an exponent
// spread or a carry would leave the words (a subnormal beside 0.1, or
// MaxFloat64), the numerator is promoted to a big.Int and the arithmetic
// continues there, until Reset, or Set from a narrow sum, brings it back
// to the words. Both tiers are exact, so a verdict does not depend on the
// tier that reached it.
//
// A ProcSum owns the big.Int scratch its wide comparisons run in, so it
// belongs to one goroutine; other sums are only read (Set's argument).
type ProcSum struct {
	w       [3]uint64 // the numerator, two's complement, while narrow
	shift   uint
	wide    bool    // the numerator has been promoted to num
	num     big.Int // the numerator once wide
	a, b, c big.Int // scratch
}

// narrowBits is the most magnitude bits a narrow numerator holds: three
// words less the sign bit.
const narrowBits = 191

// Reset empties the sum and returns it to the words, keeping its storage.
func (s *ProcSum) Reset() {
	s.w, s.shift, s.wide = [3]uint64{}, 0, false
}

// Set copies o into s, in o's tier.
func (s *ProcSum) Set(o *ProcSum) {
	s.w, s.shift, s.wide = o.w, o.shift, o.wide
	if o.wide {
		s.num.Set(&o.num)
	}
}

// sign returns -1, 0 or 1 as Σ is negative, zero or positive.
func (s *ProcSum) sign() int {
	switch {
	case s.wide:
		return s.num.Sign()
	case int64(s.w[2]) < 0:
		return -1
	case s.w == [3]uint64{}:
		return 0
	}
	return 1
}

// promote moves a narrow numerator into num; a wide sum is left as it is.
func (s *ProcSum) promote() {
	if s.wide {
		return
	}
	mag, neg := s.w, int64(s.w[2]) < 0
	if neg {
		neg3(&mag) // as unsigned words, even the most negative value
	}
	s.num.SetUint64(mag[2])
	s.num.Lsh(&s.num, 64).Or(&s.num, s.a.SetUint64(mag[1]))
	s.num.Lsh(&s.num, 64).Or(&s.num, s.a.SetUint64(mag[0]))
	if neg {
		s.num.Neg(&s.num)
	}
	s.wide = true
}

// Add accumulates p exactly. NaN and ±Inf report false and leave the sum
// unchanged; callers treat them as unverifiable, hence infeasible.
func (s *ProcSum) Add(p float64) bool { return s.addMul(p, 1) }

// addMul accumulates p·k exactly for a positive integer k: in the words
// while it fits there, else in addWide.
func (s *ProcSum) addMul(p float64, k uint64) bool {
	if !s.wide && s.addWords(p, k) {
		return true
	}
	return s.addWide(p, s.c.SetUint64(k))
}

// addWide accumulates p·k in big.Int for a positive integer k of any size,
// promoting the sum. NaN and ±Inf report false and leave the sum
// unchanged. k may be s.c.
func (s *ProcSum) addWide(p float64, k *big.Int) bool {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return false
	}
	s.promote()
	m, e := dyadic(p)
	s.addShifted(s.b.Mul(s.a.SetInt64(m), k), e)
	return true
}

// addWords adds p·k to a narrow sum and reports whether the result fit the
// words; when it did not, the sum is unchanged. NaN and ±Inf never fit:
// their all-ones exponent field reads as a term of at least 2^972, so they
// reach addWide's test.
func (s *ProcSum) addWords(p float64, k uint64) bool {
	m, e := dyadic(p)
	if m == 0 {
		return true
	}
	mag := uint64(m)
	if m < 0 {
		mag = uint64(-m)
	}
	hi, lo := bits.Mul64(mag, k)
	v, shift := s.w, s.shift
	if v == [3]uint64{} {
		shift = 0 // an empty numerator takes the term's denominator
	}
	// Over the finer power-of-two denominator: the term moves up by tsh
	// bits, or the sum by up bits.
	var up, tsh uint
	switch d := uint(-e); {
	case e >= 0:
		tsh = uint(e) + shift
	case d > shift:
		up, shift = d-shift, d
	default:
		tsh = shift - d
	}
	t := [3]uint64{lo, hi}
	if len3(&t)+int(tsh) > narrowBits {
		return false
	}
	if up > 0 {
		// −1 needs no magnitude bits, but −2^up still needs up of them.
		if v != ([3]uint64{}) && sigBits(&v)+int(up) > narrowBits {
			return false
		}
		shl3(&v, up)
	}
	shl3(&t, tsh)
	if m < 0 {
		neg3(&t)
	}
	vneg := int64(v[2]) < 0
	var c uint64
	v[0], c = bits.Add64(v[0], t[0], 0)
	v[1], c = bits.Add64(v[1], t[1], c)
	v[2], _ = bits.Add64(v[2], t[2], c)
	if vneg == (m < 0) && (int64(v[2]) < 0) != vneg {
		return false // a carry out of the words: the signed sum overflowed
	}
	s.w, s.shift = v, shift
	return true
}

// addShifted adds t·2^e to a wide sum, rescaling whichever side has the
// coarser power-of-two denominator. t is scratch and is clobbered.
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
		return s.sign() <= 0
	}
	return s.within(uint64(budget.Num), uint64(budget.Den), speed)
}

// within reports Σ·den ≤ bnum·speed for a positive integer bnum and a
// positive den. With speed = ms·2^es and Σ = num/2^shift that is
// num·den ≤ bnum·ms·2^(shift+es), one cross-multiplication with the power
// of two moved to whichever side keeps it non-negative. A narrow sum
// compares in words; a wide one, or a speed that admits nothing, in
// withinBig.
func (s *ProcSum) within(bnum, den uint64, speed float64) bool {
	if s.wide || !(speed > 0) || math.IsInf(speed, 1) {
		return s.withinBig(s.c.SetUint64(bnum), den, speed)
	}
	return s.withinWords(bnum, den, speed)
}

// withinWords is within for a narrow sum and a positive finite speed, in
// four words. It always decides there: num·den has at most 191+64 bits
// and bnum·ms at most 64+53, so unequal bit lengths decide at once, and
// equal ones leave the shifted side no longer than the other, inside the
// words.
func (s *ProcSum) withinWords(bnum, den uint64, speed float64) bool {
	if s.sign() <= 0 {
		return true // Σ ≤ 0 < bnum·speed
	}
	ms, es := dyadic(speed)
	var x, y [4]uint64
	mul3(&x, &s.w, den)
	y[1], y[0] = bits.Mul64(bnum, uint64(ms))
	bx, by := len4(&x), len4(&y)
	side, sh := &y, int(s.shift)+es // the side the power of two multiplies
	if sh < 0 {
		side, sh = &x, -sh
		bx += sh
	} else {
		by += sh
	}
	if bx != by {
		return bx < by
	}
	shl4(side, uint(sh))
	return cmp4(&x, &y) <= 0
}

// withinBig is within in big.Int, for a bnum of any size; it promotes the
// sum. bnum may be s.c.
func (s *ProcSum) withinBig(bnum *big.Int, den uint64, speed float64) bool {
	if !(speed > 0) || math.IsInf(speed, 1) {
		return false
	}
	s.promote()
	ms, es := dyadic(speed)
	rhs := &s.b
	if ms == 1 {
		rhs.Set(bnum)
	} else {
		rhs.Mul(bnum, s.a.SetInt64(ms))
	}
	lhs := &s.num
	if den != 1 {
		lhs = s.a.Mul(&s.num, s.c.SetUint64(den))
	}
	if sh := int(s.shift) + es; sh >= 0 {
		rhs.Lsh(rhs, uint(sh))
	} else {
		lhs = s.a.Lsh(lhs, uint(-sh))
	}
	return lhs.Cmp(rhs) <= 0
}

// dyadic splits a finite float64 into f = m·2^e exactly, with m odd (or
// zero), so exact sums and budgets carry no redundant low zero bits. It
// reads the IEEE 754 fields directly: the significand, with its implicit
// bit unless f is subnormal, over 2^1074 less the biased exponent.
func dyadic(f float64) (m int64, e int) {
	b := math.Float64bits(f)
	mant, exp := b&(1<<52-1), int(b>>52&0x7ff)
	if exp == 0 {
		e = -1074 // zero or subnormal
	} else {
		mant |= 1 << 52
		e = exp - 1075
	}
	if mant == 0 {
		return 0, 0
	}
	tz := bits.TrailingZeros64(mant)
	m, e = int64(mant>>tz), e+tz
	if b>>63 != 0 {
		m = -m
	}
	return m, e
}

// The word helpers below work in place on little-endian fixed arrays of
// three words (four for a cross-product), unsigned unless the caller says
// two's complement, and are written out so they neither loop nor allocate;
// they take pointers because Go passes arrays of more than one element in
// memory. Go defines a shift by 64 or more as 0, which the shifts by 64−r
// rely on when r is 0.

// len3 is the bit length of x.
func len3(x *[3]uint64) int {
	switch {
	case x[2] != 0:
		return 128 + bits.Len64(x[2])
	case x[1] != 0:
		return 64 + bits.Len64(x[1])
	}
	return bits.Len64(x[0])
}

// len4 is the bit length of x.
func len4(x *[4]uint64) int {
	switch {
	case x[3] != 0:
		return 192 + bits.Len64(x[3])
	case x[2] != 0:
		return 128 + bits.Len64(x[2])
	case x[1] != 0:
		return 64 + bits.Len64(x[1])
	}
	return bits.Len64(x[0])
}

// sigBits is the magnitude bit length of the two's-complement x: the bits
// it needs besides its sign.
func sigBits(x *[3]uint64) int {
	if int64(x[2]) < 0 {
		y := [3]uint64{^x[0], ^x[1], ^x[2]}
		return len3(&y)
	}
	return len3(x)
}

// neg3 sets x to −x in two's complement.
func neg3(x *[3]uint64) {
	var b uint64
	x[0], b = bits.Sub64(0, x[0], 0)
	x[1], b = bits.Sub64(0, x[1], b)
	x[2], _ = bits.Sub64(0, x[2], b)
}

// shl3 sets x to x·2^n modulo 2^192.
func shl3(x *[3]uint64, n uint) {
	r := n % 64
	switch n / 64 {
	case 0:
		x[2], x[1], x[0] = x[2]<<r|x[1]>>(64-r), x[1]<<r|x[0]>>(64-r), x[0]<<r
	case 1:
		x[2], x[1], x[0] = x[1]<<r|x[0]>>(64-r), x[0]<<r, 0
	case 2:
		x[2], x[1], x[0] = x[0]<<r, 0, 0
	default:
		*x = [3]uint64{}
	}
}

// shl4 sets x to x·2^n modulo 2^256.
func shl4(x *[4]uint64, n uint) {
	r := n % 64
	switch n / 64 {
	case 0:
		x[3], x[2], x[1], x[0] = x[3]<<r|x[2]>>(64-r), x[2]<<r|x[1]>>(64-r), x[1]<<r|x[0]>>(64-r), x[0]<<r
	case 1:
		x[3], x[2], x[1], x[0] = x[2]<<r|x[1]>>(64-r), x[1]<<r|x[0]>>(64-r), x[0]<<r, 0
	case 2:
		x[3], x[2], x[1], x[0] = x[1]<<r|x[0]>>(64-r), x[0]<<r, 0, 0
	case 3:
		x[3], x[2], x[1], x[0] = x[0]<<r, 0, 0, 0
	default:
		*x = [4]uint64{}
	}
}

// mul3 sets z to the unsigned product x·y.
func mul3(z *[4]uint64, x *[3]uint64, y uint64) {
	h0, l0 := bits.Mul64(x[0], y)
	h1, l1 := bits.Mul64(x[1], y)
	h2, l2 := bits.Mul64(x[2], y)
	var c uint64
	z[0] = l0
	z[1], c = bits.Add64(l1, h0, 0)
	z[2], c = bits.Add64(l2, h1, c)
	z[3] = h2 + c
}

// cmp4 returns -1, 0 or 1 as x <, ==, > y.
func cmp4(x, y *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
