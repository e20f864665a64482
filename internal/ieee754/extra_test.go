package ieee754

import (
	"math"
	"testing"
)

func TestNextUpDownMatchesHardware(t *testing.T) {
	rng := newRng(t)
	for _, a := range specials64() {
		got := Binary64.NextUp(a)
		want := b64(math.Nextafter(f64(a), math.Inf(1)))
		if Binary64.IsNaN(a) {
			if !Binary64.IsNaN(got) {
				t.Fatalf("nextUp(NaN) = %x", got)
			}
			continue
		}
		// math.Nextafter(+Inf, +Inf) = +Inf; matches.
		if got != want && !(f64(a) == 0 && got == Binary64.MinSubnormal()) {
			t.Fatalf("nextUp(%x~%v) = %x (%v), want %x (%v)",
				a, f64(a), got, f64(got), want, f64(want))
		}
	}
	for i := 0; i < 100000; i++ {
		a := randBits64(rng)
		if Binary64.IsNaN(a) {
			continue
		}
		up := Binary64.NextUp(a)
		wantUp := b64(math.Nextafter(f64(a), math.Inf(1)))
		// Nextafter(±0, +inf) gives +minSub; NextUp(-0) also minSub
		// but Nextafter keeps the zero-sign path identical, so direct
		// comparison works except at -0 where hardware returns +minSub
		// too.
		if f64(a) == 0 {
			if up != Binary64.MinSubnormal() {
				t.Fatalf("nextUp(zero %x) = %x", a, up)
			}
			continue
		}
		if up != wantUp {
			t.Fatalf("nextUp(%v) = %v want %v", f64(a), f64(up), f64(wantUp))
		}
	}
}

func TestBfloat16Format(t *testing.T) {
	if Bfloat16.Bias() != 127 || Bfloat16.Precision() != 8 {
		t.Fatal("bfloat16 parameters")
	}
	// bfloat16 has binary32's range: max finite ~3.39e38.
	max := Bfloat16.ToFloat64(Bfloat16.MaxFinite(false))
	if max < 3e38 || max > 4e38 {
		t.Fatalf("bfloat16 max = %v", max)
	}
	// ...but dramatically less precision: 256 + 1 rounds to 256.
	var e Env
	c256 := Bfloat16.FromFloat64(&e, 256)
	one := Bfloat16.One(false)
	if r := Bfloat16.Add(&e, c256, one); r != c256 {
		t.Fatalf("bfloat16 256+1 = %v", Bfloat16.ToFloat64(r))
	}
	// binary16 keeps it (p=11).
	h256 := Binary16.FromFloat64(&e, 256)
	hone := Binary16.One(false)
	if r := Binary16.Add(&e, h256, hone); Binary16.ToFloat64(r) != 257 {
		t.Fatalf("binary16 256+1 = %v", Binary16.ToFloat64(r))
	}
}

// Bfloat16 ops verified through float64 (valid: p=8, so 53 >= 2p+2).
func TestBfloat16OpsViaDoubleRounding(t *testing.T) {
	var e Env
	narrow := func(v float64) uint64 {
		var s Env
		return Binary64.Convert(&s, Bfloat16, math.Float64bits(v))
	}
	rng := newRng(t)
	for i := 0; i < 200000; i++ {
		a := rng.Uint64() & 0xffff
		b := rng.Uint64() & 0xffff
		va, vb := Bfloat16.ToFloat64(a), Bfloat16.ToFloat64(b)
		checks := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"add", Bfloat16.Add(&e, a, b), narrow(va + vb)},
			{"sub", Bfloat16.Sub(&e, a, b), narrow(va - vb)},
			{"mul", Bfloat16.Mul(&e, a, b), narrow(va * vb)},
			{"div", Bfloat16.Div(&e, a, b), narrow(va / vb)},
		}
		for _, c := range checks {
			if Bfloat16.IsNaN(c.got) && Bfloat16.IsNaN(c.want) {
				continue
			}
			if c.got != c.want {
				t.Fatalf("bf16 %s(%#04x~%v, %#04x~%v): got %#04x want %#04x",
					c.name, a, va, b, vb, c.got, c.want)
			}
		}
	}
}
