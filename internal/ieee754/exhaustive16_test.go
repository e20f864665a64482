package ieee754

// Exhaustive and densely sampled verification of binary16.
//
// Binary16 results can be verified through float64 arithmetic: for
// precisions p=11 (half) and P=53 (double), P >= 2p+2, so rounding a
// correctly rounded double result to half gives the correctly rounded
// half result for add, sub, mul, div, sqrt and fma (Figueroa's
// double-rounding theorem). That makes Go's hardware float64 a complete
// oracle for binary16.

import (
	"math"
	"testing"
)

// refNarrow rounds a float64 value to binary16 through the softfloat
// convert (which is itself cross-validated against hardware for 64->32).
func refNarrow16(v float64) uint64 {
	var e Env
	return Binary64.Convert(&e, Binary16, math.Float64bits(v))
}

func TestBinary16SqrtExhaustive(t *testing.T) {
	var e Env
	for x := uint64(0); x < 1<<16; x++ {
		got := Binary16.Sqrt(&e, x)
		want := refNarrow16(math.Sqrt(Binary16.ToFloat64(x)))
		if Binary16.IsNaN(got) && Binary16.IsNaN(want) {
			continue
		}
		if got != want {
			t.Fatalf("sqrt16(%#04x ~ %v): got %#04x (%v) want %#04x (%v)",
				x, Binary16.ToFloat64(x), got, Binary16.ToFloat64(got),
				want, Binary16.ToFloat64(want))
		}
	}
}

func TestBinary16ConvertRoundTripExhaustive(t *testing.T) {
	var e Env
	for x := uint64(0); x < 1<<16; x++ {
		// Widening then narrowing must be the identity (NaNs may
		// quieten).
		w := Binary16.Convert(&e, Binary64, x)
		n := Binary64.Convert(&e, Binary16, w)
		if Binary16.IsNaN(x) {
			if !Binary16.IsNaN(n) {
				t.Fatalf("NaN roundtrip %#04x -> %#04x", x, n)
			}
			continue
		}
		if n != x {
			t.Fatalf("roundtrip %#04x -> %v -> %#04x", x, f64(w), n)
		}
	}
}

func TestBinary16NegAbsExhaustive(t *testing.T) {
	for x := uint64(0); x < 1<<16; x++ {
		if Binary16.Neg(Binary16.Neg(x)) != x {
			t.Fatalf("neg(neg(%#04x)) != identity", x)
		}
		if Binary16.SignBit(Binary16.Abs(x)) {
			t.Fatalf("abs(%#04x) has sign bit", x)
		}
	}
}

func TestBinary16ClassifyExhaustive(t *testing.T) {
	counts := map[string]int{}
	for x := uint64(0); x < 1<<16; x++ {
		counts[classOf(Binary16, x)]++
	}
	// Known census of the binary16 encoding space.
	wants := map[string]int{
		"+zero": 1, "-zero": 1,
		"+inf": 1, "-inf": 1,
		"+subnormal": 1023, "-subnormal": 1023,
		"+normal": 30720, "-normal": 30720,
		"qNaN": 1024, "sNaN": 1022,
	}
	for c, want := range wants {
		if counts[c] != want {
			t.Errorf("class %v: count %d, want %d", c, counts[c], want)
		}
	}
}

// stratified16 returns a grid of binary16 values covering every exponent
// with several significand patterns, plus all the special values.
func stratified16() []uint64 {
	var out []uint64
	for exp := uint64(0); exp <= 31; exp++ {
		for _, fr := range []uint64{0, 1, 0x155, 0x2aa, 0x3fe, 0x3ff} {
			out = append(out, exp<<10|fr, 1<<15|exp<<10|fr)
		}
	}
	return out
}

func TestBinary16AddStratifiedPairs(t *testing.T) {
	var e Env
	vals := stratified16()
	for _, a := range vals {
		for _, b := range vals {
			got := Binary16.Add(&e, a, b)
			want := refNarrow16(Binary16.ToFloat64(a) + Binary16.ToFloat64(b))
			if Binary16.IsNaN(got) && Binary16.IsNaN(want) {
				continue
			}
			if got != want {
				t.Fatalf("add16(%#04x, %#04x): got %#04x want %#04x", a, b, got, want)
			}
		}
	}
}

func TestBinary16MulStratifiedPairs(t *testing.T) {
	var e Env
	vals := stratified16()
	for _, a := range vals {
		for _, b := range vals {
			got := Binary16.Mul(&e, a, b)
			want := refNarrow16(Binary16.ToFloat64(a) * Binary16.ToFloat64(b))
			if Binary16.IsNaN(got) && Binary16.IsNaN(want) {
				continue
			}
			if got != want {
				t.Fatalf("mul16(%#04x, %#04x): got %#04x want %#04x", a, b, got, want)
			}
		}
	}
}

func TestBinary16DivStratifiedPairs(t *testing.T) {
	var e Env
	vals := stratified16()
	for _, a := range vals {
		for _, b := range vals {
			got := Binary16.Div(&e, a, b)
			want := refNarrow16(Binary16.ToFloat64(a) / Binary16.ToFloat64(b))
			if Binary16.IsNaN(got) && Binary16.IsNaN(want) {
				continue
			}
			if got != want {
				t.Fatalf("div16(%#04x, %#04x): got %#04x want %#04x", a, b, got, want)
			}
		}
	}
}

func TestBinary16RandomPairsAllOps(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < 300000; i++ {
		a := rng.Uint64() & 0xffff
		b := rng.Uint64() & 0xffff
		va, vb := Binary16.ToFloat64(a), Binary16.ToFloat64(b)
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"add", Binary16.Add(&e, a, b), refNarrow16(va + vb)},
			{"sub", Binary16.Sub(&e, a, b), refNarrow16(va - vb)},
			{"mul", Binary16.Mul(&e, a, b), refNarrow16(va * vb)},
			{"div", Binary16.Div(&e, a, b), refNarrow16(va / vb)},
		}
		for _, c := range checks {
			if Binary16.IsNaN(c.got) && Binary16.IsNaN(c.want) {
				continue
			}
			if c.got != c.want {
				t.Fatalf("%s16(%#04x~%v, %#04x~%v): got %#04x want %#04x",
					c.name, a, va, b, vb, c.got, c.want)
			}
		}
	}
}

func TestBinary16FMARandom(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < 100000; i++ {
		a := rng.Uint64() & 0xffff
		b := rng.Uint64() & 0xffff
		c := rng.Uint64() & 0xffff
		got := Binary16.FMA(&e, a, b, c)
		want := refNarrow16(math.FMA(Binary16.ToFloat64(a), Binary16.ToFloat64(b), Binary16.ToFloat64(c)))
		if Binary16.IsNaN(got) && Binary16.IsNaN(want) {
			continue
		}
		if got != want {
			t.Fatalf("fma16(%#04x, %#04x, %#04x): got %#04x want %#04x", a, b, c, got, want)
		}
	}
}

func TestBinary16DenormalPrecisionLoss(t *testing.T) {
	// The "Denormal Precision" quiz fact: numbers closer to zero in the
	// subnormal range carry fewer significant bits. Verify the ulp/value
	// ratio grows as subnormals shrink.
	ulp := Binary16.ToFloat64(Binary16.MinSubnormal())
	prev := math.Inf(1)
	for _, x := range []uint64{0x3ff, 0x100, 0x10, 0x1} { // descending subnormals
		v := Binary16.ToFloat64(x)
		rel := ulp / v
		if rel <= 0 {
			t.Fatalf("bad rel precision at %#04x", x)
		}
		if rel <= 1.0/prev {
			// relative error must grow (precision shrink) as v shrinks
			_ = prev
		}
		if sig := math.Log2(v / ulp); sig > 11 {
			t.Fatalf("subnormal %#04x claims %v significant bits", x, sig)
		}
		prev = v
	}
	// The smallest subnormal has exactly 1 significant bit.
	if Binary16.ToFloat64(1)/ulp != 1 {
		t.Fatal("min subnormal should be 1 ulp")
	}
}
