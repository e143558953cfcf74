package sched

import (
	"testing"
	"testing/quick"
)

func TestRatFromFPS(t *testing.T) {
	r := RatFromFPS(30)
	if r.Num != 1 || r.Den != 30 {
		t.Fatalf("RatFromFPS(30) = %v", r)
	}
	if r.Float() != 1.0/30 {
		t.Fatalf("Float = %v", r.Float())
	}
}

func TestRatReduce(t *testing.T) {
	r := Rat(4, 6)
	if r.Num != 2 || r.Den != 3 {
		t.Fatalf("Rat(4,6) = %v", r)
	}
}

func TestRatInvalid(t *testing.T) {
	for _, f := range []func(){
		func() { RatFromFPS(0) },
		func() { Rat(1, 0) },
		func() { Rat(-1, 2) },
		func() { Rational{1, 2}.Mul(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRatGCD(t *testing.T) {
	cases := []struct {
		a, b, want Rational
	}{
		{RatFromFPS(5), RatFromFPS(10), RatFromFPS(10)},  // gcd(1/5, 1/10) = 1/10
		{RatFromFPS(10), RatFromFPS(15), RatFromFPS(30)}, // 1/lcm(10,15)
		{Rat(3, 10), Rat(1, 5), Rat(1, 10)},              // gcd(0.3, 0.2) = 0.1
		{Rat(1, 2), Rat(1, 2), Rat(1, 2)},
		{Rational{0, 1}, Rat(1, 3), Rat(1, 3)}, // gcd(0, x) = x
	}
	for _, c := range cases {
		got := RatGCD(c.a, c.b)
		if got.Cmp(c.want) != 0 {
			t.Errorf("RatGCD(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIsMultipleOf(t *testing.T) {
	if !Rat(3, 10).IsMultipleOf(Rat(1, 10)) {
		t.Error("0.3 is a multiple of 0.1")
	}
	if Rat(1, 10).IsMultipleOf(Rat(3, 10)) {
		t.Error("0.1 is not a multiple of 0.3")
	}
	if !Rat(1, 5).IsMultipleOf(Rat(1, 5)) {
		t.Error("x is a multiple of itself")
	}
	if !RatFromFPS(5).IsMultipleOf(RatFromFPS(30)) {
		t.Error("1/5 = 6·(1/30)")
	}
	if RatFromFPS(30).IsMultipleOf(RatFromFPS(25)) {
		t.Error("1/30 is not a multiple of 1/25")
	}
}

func TestCmp(t *testing.T) {
	if Rat(1, 3).Cmp(Rat(1, 2)) != -1 || Rat(1, 2).Cmp(Rat(1, 3)) != 1 || Rat(2, 4).Cmp(Rat(1, 2)) != 0 {
		t.Fatal("Cmp wrong")
	}
}

// Properties: gcd divides both operands and is no larger than either.
func TestRatGCDProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		fa, fb := int64(a%60)+1, int64(b%60)+1
		ra, rb := RatFromFPS(fa), RatFromFPS(fb)
		g := RatGCD(ra, rb)
		return ra.IsMultipleOf(g) && rb.IsMultipleOf(g) &&
			g.Cmp(ra) <= 0 && g.Cmp(rb) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMul(t *testing.T) {
	if got := RatFromFPS(30).Mul(3); got.Cmp(Rat(1, 10)) != 0 {
		t.Fatalf("(1/30)·3 = %v", got)
	}
}

func TestString(t *testing.T) {
	if Rat(1, 5).String() != "1/5" {
		t.Fatalf("String = %q", Rat(1, 5).String())
	}
}
