package ieee754

// Property tests over RANDOM formats: the softfloat is parametric in
// (ExpBits, FracBits), so its invariants must hold for shapes nobody
// ships, not just the standard three. Arithmetic correctness for random
// formats is checked against the exact reference
// (TestExactReferenceRandomFormats); here we verify structural
// invariants.

import (
	"math/rand"
	"testing"
)

func randFormat(rng *rand.Rand) Format {
	return Format{
		ExpBits:  uint(rng.Intn(9) + 3),  // 3..11
		FracBits: uint(rng.Intn(50) + 3), // 3..52
		Name:     "rand",
	}
}

func TestRandomFormatsStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var e Env
	for trial := 0; trial < 200; trial++ {
		f := randFormat(rng)
		// Constants classify correctly.
		checks := []struct {
			x    uint64
			want string
		}{
			{f.Zero(false), "+zero"},
			{f.Zero(true), "-zero"},
			{f.Inf(false), "+inf"},
			{f.Inf(true), "-inf"},
			{f.QNaN(), "qNaN"},
			{f.SNaN(), "sNaN"},
			{f.One(false), "+normal"},
			{f.MaxFinite(true), "-normal"},
			{f.MinSubnormal(), "+subnormal"},
			{f.MinNormal(), "+normal"},
		}
		for _, c := range checks {
			if got := classOf(f, c.x); got != c.want {
				t.Fatalf("%+v: classify(%x) = %v, want %v", f, c.x, got, c.want)
			}
		}
		// 1 + 1 == 2 exactly in every format.
		two := f.Add(&e, f.One(false), f.One(false))
		if f.ToFloat64(two) != 2 {
			t.Fatalf("%+v: 1+1 = %v", f, f.ToFloat64(two))
		}
		// x / x == 1 for a handful of ordinary values.
		for _, v := range []float64{3, 0.5, 7.25} {
			x := f.FromFloat64(&e, v)
			if q := f.Div(&e, x, x); q != f.One(false) {
				t.Fatalf("%+v: %v/%v = %x", f, v, v, q)
			}
		}
		// NextUp chains upward through the whole low range without
		// skipping: from +0, p+2 steps stay ordered.
		x := f.Zero(false)
		for i := 0; i < int(f.Precision())+2; i++ {
			nx := f.NextUp(x)
			if f.CompareQuiet(&e, nx, x) != Greater {
				t.Fatalf("%+v: nextUp not increasing at %x", f, x)
			}
			x = nx
		}
		// MaxFinite + MaxFinite overflows to inf; MinSubnormal/2
		// underflows to zero (RNE).
		if r := f.Add(&e, f.MaxFinite(false), f.MaxFinite(false)); !f.IsInf(r, +1) {
			t.Fatalf("%+v: max+max = %x", f, r)
		}
		if r := f.Div(&e, f.MinSubnormal(), f.FromFloat64(&e, 2)); r != f.Zero(false) {
			t.Fatalf("%+v: minSub/2 = %x", f, r)
		}
		// Widening to binary64 and back is the identity for finite
		// values (every such format embeds in binary64 given
		// FracBits <= 52 and ExpBits <= 11).
		for i := 0; i < 50; i++ {
			bitsLen := f.TotalBits()
			x := rng.Uint64() & ((1 << bitsLen) - 1)
			if f.IsNaN(x) {
				continue
			}
			w := f.Convert(&e, Binary64, x)
			back := Binary64.Convert(&e, f, w)
			if back != x {
				t.Fatalf("%+v: roundtrip %x -> %x", f, x, back)
			}
		}
		// Commutativity on random pairs.
		for i := 0; i < 50; i++ {
			bitsLen := f.TotalBits()
			a := rng.Uint64() & ((1 << bitsLen) - 1)
			b := rng.Uint64() & ((1 << bitsLen) - 1)
			s1 := f.Add(&e, a, b)
			s2 := f.Add(&e, b, a)
			if s1 != s2 && !(f.IsNaN(s1) && f.IsNaN(s2)) {
				t.Fatalf("%+v: add not commutative: %x %x", f, a, b)
			}
			p1 := f.Mul(&e, a, b)
			p2 := f.Mul(&e, b, a)
			if p1 != p2 && !(f.IsNaN(p1) && f.IsNaN(p2)) {
				t.Fatalf("%+v: mul not commutative: %x %x", f, a, b)
			}
		}
	}
}

func TestRandomFormatsAgainstBinary64ViaDoubleRounding(t *testing.T) {
	// For formats with p <= 25 (2p+2 <= 52 < 53), binary64 hardware is
	// a complete oracle for add/sub/mul/div by the double-rounding
	// theorem. Sample random such formats and operands.
	rng := rand.New(rand.NewSource(78))
	var e Env
	for trial := 0; trial < 60; trial++ {
		f := Format{
			ExpBits:  uint(rng.Intn(8) + 3),  // 3..10
			FracBits: uint(rng.Intn(22) + 3), // 3..24 => p <= 25
			Name:     "rand",
		}
		mask := uint64(1<<f.TotalBits()) - 1
		narrow := func(v float64) uint64 {
			var s Env
			return Binary64.Convert(&s, f, b64(v))
		}
		for i := 0; i < 3000; i++ {
			a := rng.Uint64() & mask
			b := rng.Uint64() & mask
			if f.IsNaN(a) || f.IsNaN(b) {
				continue
			}
			va, vb := f.ToFloat64(a), f.ToFloat64(b)
			cases := []struct {
				name string
				got  uint64
				want uint64
			}{
				{"add", f.Add(&e, a, b), narrow(va + vb)},
				{"sub", f.Sub(&e, a, b), narrow(va - vb)},
				{"mul", f.Mul(&e, a, b), narrow(va * vb)},
				{"div", f.Div(&e, a, b), narrow(va / vb)},
			}
			for _, c := range cases {
				if f.IsNaN(c.got) && f.IsNaN(c.want) {
					continue
				}
				if c.got != c.want {
					t.Fatalf("%+v: %s(%v, %v) = %x, want %x",
						f, c.name, va, vb, c.got, c.want)
				}
			}
		}
	}
}
