package ieee754

import (
	"math"
	"testing"
)

// Directed tests for exception flags, rounding modes, and the
// non-standard FTZ/DAZ controls — semantics Go's hardware floats can't
// expose, so they are checked against the standard's requirements.

func TestDivByZeroFlag(t *testing.T) {
	var e Env
	r := Binary64.Div(&e, b64(1), b64(0))
	if !Binary64.IsInf(r, +1) {
		t.Fatalf("1/0 = %v, want +Inf", f64(r))
	}
	if e.LastRaised != FlagDivByZero {
		t.Fatalf("1/0 raised %v, want divbyzero", e.LastRaised)
	}
	r = Binary64.Div(&e, b64(-1), b64(0))
	if !Binary64.IsInf(r, -1) {
		t.Fatalf("-1/0 = %v, want -Inf", f64(r))
	}
	r = Binary64.Div(&e, b64(1), Binary64.Zero(true))
	if !Binary64.IsInf(r, -1) {
		t.Fatalf("1/-0 = %v, want -Inf", f64(r))
	}
}

func TestZeroDivZeroInvalid(t *testing.T) {
	var e Env
	r := Binary64.Div(&e, b64(0), b64(0))
	if !Binary64.IsNaN(r) {
		t.Fatalf("0/0 = %v, want NaN", f64(r))
	}
	if e.LastRaised != FlagInvalid {
		t.Fatalf("0/0 raised %v, want invalid", e.LastRaised)
	}
}

func TestInvalidOperations(t *testing.T) {
	var e Env
	cases := []struct {
		name string
		run  func() uint64
	}{
		{"inf-inf", func() uint64 { return Binary64.Sub(&e, Binary64.Inf(false), Binary64.Inf(false)) }},
		{"inf+(-inf)", func() uint64 { return Binary64.Add(&e, Binary64.Inf(false), Binary64.Inf(true)) }},
		{"0*inf", func() uint64 { return Binary64.Mul(&e, b64(0), Binary64.Inf(false)) }},
		{"inf/inf", func() uint64 { return Binary64.Div(&e, Binary64.Inf(false), Binary64.Inf(true)) }},
		{"sqrt(-1)", func() uint64 { return Binary64.Sqrt(&e, b64(-1)) }},
		{"fma(0,inf,1)", func() uint64 { return Binary64.FMA(&e, b64(0), Binary64.Inf(false), b64(1)) }},
		{"fma(inf,1,-inf)", func() uint64 { return Binary64.FMA(&e, Binary64.Inf(false), b64(1), Binary64.Inf(true)) }},
	}
	for _, c := range cases {
		r := c.run()
		if !Binary64.IsNaN(r) {
			t.Errorf("%s = %v, want NaN", c.name, f64(r))
		}
		if !e.LastRaised.Has(FlagInvalid) {
			t.Errorf("%s raised %v, want invalid", c.name, e.LastRaised)
		}
	}
}

func TestOverflowSaturation(t *testing.T) {
	max := Binary64.MaxFinite(false)
	// Round-to-nearest overflow gives infinity.
	var e Env
	r := Binary64.Mul(&e, max, b64(2))
	if !Binary64.IsInf(r, +1) {
		t.Fatalf("max*2 (RNE) = %v, want +Inf", f64(r))
	}
	if !e.LastRaised.Has(FlagOverflow | FlagInexact) {
		t.Fatalf("max*2 raised %v, want overflow|inexact", e.LastRaised)
	}
	// Toward zero clamps at the max finite value.
	e = Env{Rounding: TowardZero}
	r = Binary64.Mul(&e, max, b64(2))
	if r != max {
		t.Fatalf("max*2 (RTZ) = %x, want maxFinite %x", r, max)
	}
	// Toward negative: +overflow clamps, -overflow goes to -Inf.
	e = Env{Rounding: TowardNegative}
	if r = Binary64.Mul(&e, max, b64(2)); r != max {
		t.Fatalf("max*2 (RD) = %x, want maxFinite", r)
	}
	if r = Binary64.Mul(&e, Binary64.MaxFinite(true), b64(2)); !Binary64.IsInf(r, -1) {
		t.Fatalf("-max*2 (RD) = %v, want -Inf", f64(r))
	}
	// Toward positive: mirror.
	e = Env{Rounding: TowardPositive}
	if r = Binary64.Mul(&e, max, b64(2)); !Binary64.IsInf(r, +1) {
		t.Fatalf("max*2 (RU) = %v, want +Inf", f64(r))
	}
	if r = Binary64.Mul(&e, Binary64.MaxFinite(true), b64(2)); r != Binary64.MaxFinite(true) {
		t.Fatalf("-max*2 (RU) = %x, want -maxFinite", r)
	}
}

func TestSaturationAtInfinity(t *testing.T) {
	// Floating point arithmetic saturates: inf + 1 == inf, and there
	// is no way to "back off" from infinity by subtracting.
	var e Env
	inf := Binary64.Inf(false)
	if r := Binary64.Add(&e, inf, b64(1)); r != inf {
		t.Fatalf("inf+1 = %v", f64(r))
	}
	if r := Binary64.Sub(&e, inf, b64(1)); r != inf {
		t.Fatalf("inf-1 = %v", f64(r))
	}
	// Also true for large finite values: adding 1 is absorbed.
	big := b64(1e30)
	if r := Binary64.Add(&e, big, b64(1)); r != big {
		t.Fatalf("1e30+1 = %v, want absorption", f64(r))
	}
	if !e.LastRaised.Has(FlagInexact) {
		t.Fatalf("absorption raised %v, want inexact", e.LastRaised)
	}
}

func TestUnderflowAndDenormalFlags(t *testing.T) {
	var e Env
	// minSubnormal / 2 rounds to zero: underflow|inexact.
	r := Binary64.Div(&e, Binary64.MinSubnormal(), b64(2))
	if r != 0 {
		t.Fatalf("minSub/2 = %x, want +0", r)
	}
	if !e.LastRaised.Has(FlagUnderflow|FlagInexact) || e.LastRaised.Has(FlagOverflow) {
		t.Fatalf("minSub/2 raised %v", e.LastRaised)
	}
	// minNormal / 2 is an exact subnormal: denormal flag, no underflow
	// under the exactness rule (underflow requires inexact).
	e = Env{}
	r = Binary64.Div(&e, Binary64.MinNormal(), b64(2))
	if !Binary64.IsSubnormal(r) {
		t.Fatalf("minNormal/2 = %x, want subnormal", r)
	}
	if e.LastRaised.Has(FlagUnderflow) || e.LastRaised.Has(FlagInexact) {
		t.Fatalf("exact subnormal raised %v", e.LastRaised)
	}
	if !e.LastRaised.Has(FlagDenormal) {
		t.Fatalf("subnormal result raised %v, want denormal", e.LastRaised)
	}
	// Subnormal operand raises the denormal-operand flag.
	e = Env{}
	Binary64.Add(&e, Binary64.MinSubnormal(), b64(1))
	if !e.LastRaised.Has(FlagDenormal) {
		t.Fatalf("subnormal operand raised %v, want denormal", e.LastRaised)
	}
}

func TestStickyFlags(t *testing.T) {
	var e Env
	Binary64.Div(&e, b64(1), b64(3)) // inexact
	Binary64.Div(&e, b64(1), b64(0)) // divbyzero
	want := FlagInexact | FlagDivByZero
	if e.Flags != want {
		t.Fatalf("sticky flags %v, want %v", e.Flags, want)
	}
}

func TestFTZ(t *testing.T) {
	// FTZ flushes subnormal results to zero.
	e := Env{FTZ: true}
	r := Binary64.Div(&e, Binary64.MinNormal(), b64(2))
	if r != 0 {
		t.Fatalf("FTZ minNormal/2 = %x, want +0", r)
	}
	if !e.LastRaised.Has(FlagUnderflow) {
		t.Fatalf("FTZ flush raised %v, want underflow", e.LastRaised)
	}
	// Without FTZ the same operation yields a subnormal: a concrete
	// witness that FTZ is a non-standard behaviour change.
	var std Env
	r2 := Binary64.Div(&std, Binary64.MinNormal(), b64(2))
	if r2 == 0 || !Binary64.IsSubnormal(r2) {
		t.Fatalf("IEEE minNormal/2 = %x, want subnormal", r2)
	}
	if r == r2 {
		t.Fatal("FTZ did not change the result")
	}
}

func TestDAZ(t *testing.T) {
	sub := Binary64.MinSubnormal()
	// DAZ treats subnormal inputs as zero: sub - sub stays 0 either
	// way, but sub + sub differs, and 1e-310 * 1e10 differs wildly.
	e := Env{DAZ: true}
	if r := Binary64.Add(&e, sub, sub); r != 0 {
		t.Fatalf("DAZ sub+sub = %x, want 0", r)
	}
	var std Env
	if r := Binary64.Add(&std, sub, sub); r == 0 {
		t.Fatal("IEEE sub+sub = 0, want 2*minSub")
	}
	// A subnormal scaled back into the normal range: DAZ destroys it.
	x := b64(1e-310)
	y := b64(1e10)
	e = Env{DAZ: true}
	rd := Binary64.Mul(&e, x, y)
	std = Env{}
	rs := Binary64.Mul(&std, x, y)
	if rd != 0 {
		t.Fatalf("DAZ 1e-310*1e10 = %v, want 0", f64(rd))
	}
	if f64(rs) == 0 {
		t.Fatal("IEEE 1e-310*1e10 = 0, want ~1e-300")
	}
}

func TestRoundingModeDirections(t *testing.T) {
	// 1/3 is inexact; the five modes must order correctly.
	res := map[RoundingMode]uint64{}
	for _, m := range []RoundingMode{NearestEven, NearestAway, TowardZero, TowardPositive, TowardNegative} {
		e := Env{Rounding: m}
		res[m] = Binary64.Div(&e, b64(1), b64(3))
	}
	if !(f64(res[TowardNegative]) < f64(res[TowardPositive])) {
		t.Fatalf("RD %v !< RU %v", f64(res[TowardNegative]), f64(res[TowardPositive]))
	}
	if res[TowardZero] != res[TowardNegative] {
		t.Fatalf("RTZ of positive should equal RD")
	}
	if res[TowardPositive]-res[TowardNegative] != 1 {
		t.Fatalf("RU and RD should be 1 ulp apart, got %x vs %x",
			res[TowardPositive], res[TowardNegative])
	}
	// Negative operand: RTZ == RU.
	e := Env{Rounding: TowardZero}
	rtz := Binary64.Div(&e, b64(-1), b64(3))
	e = Env{Rounding: TowardPositive}
	ru := Binary64.Div(&e, b64(-1), b64(3))
	if rtz != ru {
		t.Fatalf("RTZ(-1/3) %x != RU(-1/3) %x", rtz, ru)
	}
}

func TestTiesToEvenVsAway(t *testing.T) {
	// 1 + 2^-53 is exactly halfway between 1 and 1+2^-52.
	one := b64(1)
	half := b64(math.Ldexp(1, -53))
	e := Env{Rounding: NearestEven}
	if r := Binary64.Add(&e, one, half); r != one {
		t.Fatalf("RNE tie: got %x, want 1.0 (even)", r)
	}
	e = Env{Rounding: NearestAway}
	if r := Binary64.Add(&e, one, half); r != one+1 {
		t.Fatalf("RNA tie: got %x, want next after 1.0", r)
	}
}

func TestSignedZeroRules(t *testing.T) {
	var e Env
	nz := Binary64.Zero(true)
	pz := Binary64.Zero(false)
	// (+0) + (-0) = +0 in all modes except toward-negative.
	if r := Binary64.Add(&e, pz, nz); r != pz {
		t.Fatalf("+0 + -0 = %x", r)
	}
	ed := Env{Rounding: TowardNegative}
	if r := Binary64.Add(&ed, pz, nz); r != nz {
		t.Fatalf("+0 + -0 (RD) = %x, want -0", r)
	}
	// x - x = +0 (RNE), -0 (RD).
	if r := Binary64.Sub(&e, b64(1.5), b64(1.5)); r != pz {
		t.Fatalf("x-x = %x, want +0", r)
	}
	if r := Binary64.Sub(&ed, b64(1.5), b64(1.5)); r != nz {
		t.Fatalf("x-x (RD) = %x, want -0", r)
	}
	// -0 * +5 = -0; sqrt(-0) = -0.
	if r := Binary64.Mul(&e, nz, b64(5)); r != nz {
		t.Fatalf("-0*5 = %x, want -0", r)
	}
	if r := Binary64.Sqrt(&e, nz); r != nz {
		t.Fatalf("sqrt(-0) = %x, want -0", r)
	}
	// Yet +0 == -0 when compared.
	if !Binary64.Eq(&e, pz, nz) {
		t.Fatal("+0 != -0")
	}
}

func TestNaNSemantics(t *testing.T) {
	var e Env
	q := Binary64.QNaN()
	// NaN != NaN (the Identity quiz question).
	if Binary64.Eq(&e, q, q) {
		t.Fatal("NaN == NaN")
	}
	// NaN propagates through arithmetic quietly.
	e = Env{}
	r := Binary64.Add(&e, q, b64(1))
	if !Binary64.IsNaN(r) || e.LastRaised.Has(FlagInvalid) {
		t.Fatalf("qNaN+1: r=%x raised=%v", r, e.LastRaised)
	}
	// Signaling NaN raises invalid and is quieted.
	s := Binary64.SNaN()
	r = Binary64.Add(&e, s, b64(1))
	if !Binary64.IsNaN(r) || Binary64.IsSignalingNaN(r) {
		t.Fatalf("sNaN+1 = %x", r)
	}
	if !e.LastRaised.Has(FlagInvalid) {
		t.Fatalf("sNaN+1 raised %v", e.LastRaised)
	}
	// Ordered comparisons with NaN raise invalid; == does not.
	e = Env{}
	Binary64.CompareSignaling(&e, q, b64(1))
	if !e.LastRaised.Has(FlagInvalid) {
		t.Fatal("NaN < x did not raise invalid")
	}
	e = Env{}
	Binary64.Eq(&e, q, b64(1))
	if e.LastRaised.Has(FlagInvalid) {
		t.Fatal("NaN == x raised invalid")
	}
}

func TestNaNPayloadPropagation(t *testing.T) {
	var e Env
	// A NaN payload travels through arithmetic (first operand wins).
	n := Binary64.QNaN() | 0x1234
	r := Binary64.Mul(&e, n, b64(2))
	if r != n {
		t.Fatalf("payload lost: %x -> %x", n, r)
	}
	// Payload survives narrowing left-aligned.
	n32 := Binary64.Convert(&e, Binary32, Binary64.QNaN()|0xabc<<40)
	if !Binary32.IsNaN(n32) {
		t.Fatalf("narrowed NaN = %x", n32)
	}
}

func TestFMASingleRounding(t *testing.T) {
	// Witness that FMA(a,b,c) != round(a*b)+c: choose a*b needing
	// more than 53 bits. (1+2^-30)^2 = 1 + 2^-29 + 2^-60.
	var e Env
	a := b64(1 + math.Ldexp(1, -30))
	c := b64(-1)
	fused := Binary64.FMA(&e, a, a, c)
	sep := Binary64.Add(&e, Binary64.Mul(&e, a, a), c)
	if fused == sep {
		t.Fatal("expected FMA to differ from mul+add on witness")
	}
	want := b64(math.Ldexp(1, -29) + math.Ldexp(1, -60))
	if fused != want {
		t.Fatalf("fma = %v, want %v", f64(fused), f64(want))
	}
}

func TestExactOperationsRaiseNothing(t *testing.T) {
	var e Env
	Binary64.Add(&e, b64(1), b64(2))
	Binary64.Mul(&e, b64(3), b64(4))
	Binary64.Div(&e, b64(1), b64(4))
	Binary64.Sqrt(&e, b64(9))
	Binary64.Sub(&e, b64(10), b64(7))
	if e.Flags != 0 {
		t.Fatalf("exact ops raised %v", e.Flags)
	}
}

func TestFormatConstants(t *testing.T) {
	if Binary64.Bias() != 1023 || Binary32.Bias() != 127 || Binary16.Bias() != 15 {
		t.Fatal("bias wrong")
	}
	if Binary64.Emin() != -1022 || Binary64.Emax() != 1023 {
		t.Fatal("binary64 exponent range wrong")
	}
	if b64(math.MaxFloat64) != Binary64.MaxFinite(false) {
		t.Fatal("MaxFinite mismatch")
	}
	if b64(math.SmallestNonzeroFloat64) != Binary64.MinSubnormal() {
		t.Fatal("MinSubnormal mismatch")
	}
	if b32(math.MaxFloat32) != Binary32.MaxFinite(false) {
		t.Fatal("MaxFinite32 mismatch")
	}
}

func TestStringAndHex(t *testing.T) {
	cases := []struct {
		x    uint64
		want string
	}{
		{b64(1.5), "1.5"},
		{b64(-0.1), "-0.1"},
		{Binary64.Inf(false), "+Inf"},
		{Binary64.Inf(true), "-Inf"},
		{Binary64.Zero(true), "-0"},
		{Binary64.QNaN(), "qNaN"},
	}
	for _, c := range cases {
		if got := Binary64.String(c.x); got != c.want {
			t.Errorf("String(%x) = %q, want %q", c.x, got, c.want)
		}
	}
	if got := Binary64.Hex(b64(3)); got != "0x1.8p+1" {
		t.Errorf("Hex(3) = %q", got)
	}
	if got := Binary64.Hex(b64(1)); got != "0x1p+0" {
		t.Errorf("Hex(1) = %q", got)
	}
}
