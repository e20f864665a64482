package ieee754

// Cross-validation of the softfloat against Go's hardware IEEE 754
// arithmetic. Go's float64/float32 operations are required by the spec
// to be correctly rounded (round-to-nearest-even), so under the default
// environment every binary64/binary32 operation must match bit-for-bit
// (modulo NaN payloads, which hardware varies).

import (
	"math"
	"testing"
)

const crossIters = 200000

func TestAddMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b uint64) {
		got := Binary64.Add(&e, a, b)
		want := b64(f64(a) + f64(b))
		if !sameFloat64(got, want) {
			t.Fatalf("add(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f64(got), want, f64(want))
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			check(a, b)
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng))
	}
}

func TestSubMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b uint64) {
		got := Binary64.Sub(&e, a, b)
		want := b64(f64(a) - f64(b))
		if !sameFloat64(got, want) {
			t.Fatalf("sub(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f64(got), want, f64(want))
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			check(a, b)
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng))
	}
}

func TestMulMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b uint64) {
		got := Binary64.Mul(&e, a, b)
		want := b64(f64(a) * f64(b))
		if !sameFloat64(got, want) {
			t.Fatalf("mul(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f64(got), want, f64(want))
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			check(a, b)
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng))
	}
}

func TestDivMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b uint64) {
		got := Binary64.Div(&e, a, b)
		want := b64(f64(a) / f64(b))
		if !sameFloat64(got, want) {
			t.Fatalf("div(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f64(got), want, f64(want))
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			check(a, b)
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng))
	}
}

func TestSqrtMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	for _, a := range specials64() {
		got := Binary64.Sqrt(&e, a)
		want := b64(math.Sqrt(f64(a)))
		if !sameFloat64(got, want) {
			t.Fatalf("sqrt(%x): got %x (%v) want %x (%v)",
				a, got, f64(got), want, f64(want))
		}
	}
	for i := 0; i < crossIters; i++ {
		a := randBits64(rng)
		got := Binary64.Sqrt(&e, a)
		want := b64(math.Sqrt(f64(a)))
		if !sameFloat64(got, want) {
			t.Fatalf("sqrt(%x): got %x (%v) want %x (%v)",
				a, got, f64(got), want, f64(want))
		}
	}
}

func TestFMAMatchesHardware64(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b, c uint64) {
		got := Binary64.FMA(&e, a, b, c)
		want := b64(math.FMA(f64(a), f64(b), f64(c)))
		if !sameFloat64(got, want) {
			t.Fatalf("fma(%x, %x, %x): got %x (%v) want %x (%v)",
				a, b, c, got, f64(got), want, f64(want))
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			for _, c := range sp {
				check(a, b, c)
			}
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng), randBits64(rng))
	}
}

func TestMul32MatchesHardware(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < crossIters; i++ {
		a := uint64(uint32(rng.Uint64()))
		b := uint64(uint32(rng.Uint64()))
		got := Binary32.Mul(&e, a, b)
		want := b32(f32(a) * f32(b))
		if !sameFloat32(got, want) {
			t.Fatalf("mul32(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f32(got), want, f32(want))
		}
	}
}

func TestAdd32MatchesHardware(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < crossIters; i++ {
		a := uint64(uint32(rng.Uint64()))
		b := uint64(uint32(rng.Uint64()))
		got := Binary32.Add(&e, a, b)
		want := b32(f32(a) + f32(b))
		if !sameFloat32(got, want) {
			t.Fatalf("add32(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f32(got), want, f32(want))
		}
	}
}

func TestDiv32MatchesHardware(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < crossIters; i++ {
		a := uint64(uint32(rng.Uint64()))
		b := uint64(uint32(rng.Uint64()))
		got := Binary32.Div(&e, a, b)
		want := b32(f32(a) / f32(b))
		if !sameFloat32(got, want) {
			t.Fatalf("div32(%x, %x): got %x (%v) want %x (%v)",
				a, b, got, f32(got), want, f32(want))
		}
	}
}

func TestConvert64To32MatchesHardware(t *testing.T) {
	var e Env
	rng := newRng(t)
	for _, a := range specials64() {
		got := Binary64.Convert(&e, Binary32, a)
		want := b32(float32(f64(a)))
		if !sameFloat32(got, want) {
			t.Fatalf("cvt64to32(%x~%v): got %x (%v) want %x (%v)",
				a, f64(a), got, f32(got), want, f32(want))
		}
	}
	for i := 0; i < crossIters; i++ {
		a := randBits64(rng)
		got := Binary64.Convert(&e, Binary32, a)
		want := b32(float32(f64(a)))
		if !sameFloat32(got, want) {
			t.Fatalf("cvt64to32(%x~%v): got %x (%v) want %x (%v)",
				a, f64(a), got, f32(got), want, f32(want))
		}
	}
}

func TestConvert32To64Exact(t *testing.T) {
	var e Env
	rng := newRng(t)
	for i := 0; i < crossIters; i++ {
		a := uint64(uint32(rng.Uint64()))
		got := Binary32.Convert(&e, Binary64, a)
		want := b64(float64(f32(a)))
		if !sameFloat64(got, want) {
			t.Fatalf("cvt32to64(%x): got %x want %x", a, got, want)
		}
	}
}

func TestCompareMatchesHardware(t *testing.T) {
	var e Env
	rng := newRng(t)
	sp := specials64()
	check := func(a, b uint64) {
		va, vb := f64(a), f64(b)
		if got, want := Binary64.Eq(&e, a, b), va == vb; got != want {
			t.Fatalf("eq(%v, %v): got %v want %v", va, vb, got, want)
		}
		o := Binary64.CompareSignaling(&e, a, b)
		if got, want := o == Less, va < vb; got != want {
			t.Fatalf("lt(%v, %v): got %v want %v", va, vb, got, want)
		}
		if got, want := o == Less || o == Equal, va <= vb; got != want {
			t.Fatalf("le(%v, %v): got %v want %v", va, vb, got, want)
		}
		if got, want := o == Greater, va > vb; got != want {
			t.Fatalf("gt(%v, %v): got %v want %v", va, vb, got, want)
		}
		if got, want := Binary64.Ge(&e, a, b), va >= vb; got != want {
			t.Fatalf("ge(%v, %v): got %v want %v", va, vb, got, want)
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			check(a, b)
		}
	}
	for i := 0; i < crossIters; i++ {
		check(randBits64(rng), randBits64(rng))
	}
}
