package ieee754

// Property-based tests (testing/quick) for the algebraic invariants the
// survey's core quiz is about. These are the machine-checked versions of
// the quiz facts: what floating point does and does not guarantee.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickCfg generates operands across all regimes.
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 20000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randBits64(rng))
			}
		},
	}
}

func TestPropAddCommutative(t *testing.T) {
	var e Env
	prop := func(a, b uint64) bool {
		x := Binary64.Add(&e, a, b)
		y := Binary64.Add(&e, b, a)
		return sameFloat64(x, y)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropMulCommutative(t *testing.T) {
	var e Env
	prop := func(a, b uint64) bool {
		return sameFloat64(Binary64.Mul(&e, a, b), Binary64.Mul(&e, b, a))
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropSquareNonNegative(t *testing.T) {
	// For any non-NaN x, x*x is never negative (it may be +Inf).
	var e Env
	prop := func(a uint64) bool {
		if Binary64.IsNaN(a) {
			return true
		}
		sq := Binary64.Mul(&e, a, a)
		return !Binary64.SignBit(sq) || Binary64.IsZero(sq)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddNotAssociative(t *testing.T) {
	// Associativity FAILS in floating point; find witnesses to prove
	// the quiz's ground truth, then verify a canonical witness.
	var e Env
	one := b64(1)
	tiny := b64(math.Ldexp(1, -53))
	l := Binary64.Add(&e, Binary64.Add(&e, one, tiny), tiny) // (1+t)+t = 1
	r := Binary64.Add(&e, one, Binary64.Add(&e, tiny, tiny)) // 1+(t+t) > 1
	if sameFloat64(l, r) {
		t.Fatal("expected associativity violation witness")
	}
	// And count how often it fails on random triples: must be nonzero.
	rng := newRng(t)
	viol := 0
	total := 0
	for i := 0; i < 20000; i++ {
		a, b, c := randBits64(rng), randBits64(rng), randBits64(rng)
		if Binary64.IsNaN(a) || Binary64.IsNaN(b) || Binary64.IsNaN(c) {
			continue
		}
		total++
		l := Binary64.Add(&e, Binary64.Add(&e, a, b), c)
		r := Binary64.Add(&e, a, Binary64.Add(&e, b, c))
		if !sameFloat64(l, r) {
			viol++
		}
	}
	if viol == 0 {
		t.Fatal("no associativity violations in random sample")
	}
	t.Logf("associativity violations: %d/%d", viol, total)
}

func TestPropDistributivityFails(t *testing.T) {
	var e Env
	// Canonical witness: a*(b+c) != a*b + a*c.
	a := b64(0.1)
	bb := b64(0.2)
	c := b64(0.3)
	l := Binary64.Mul(&e, a, Binary64.Add(&e, bb, c))
	r := Binary64.Add(&e, Binary64.Mul(&e, a, bb), Binary64.Mul(&e, a, c))
	if sameFloat64(l, r) {
		// This particular triple may round identically on some
		// formats; search for a witness instead.
		rng := newRng(t)
		found := false
		for i := 0; i < 100000 && !found; i++ {
			x, y, z := randBits64(rng), randBits64(rng), randBits64(rng)
			if Binary64.IsNaN(x) || Binary64.IsNaN(y) || Binary64.IsNaN(z) {
				continue
			}
			l = Binary64.Mul(&e, x, Binary64.Add(&e, y, z))
			r = Binary64.Add(&e, Binary64.Mul(&e, x, y), Binary64.Mul(&e, x, z))
			if !sameFloat64(l, r) && !Binary64.IsNaN(l) {
				found = true
			}
		}
		if !found {
			t.Fatal("no distributivity violation found")
		}
	}
}

func TestPropOrderingFails(t *testing.T) {
	// ((a+b)-a) == b is not an identity.
	var e Env
	a := b64(1e16)
	bb := b64(1)
	got := Binary64.Sub(&e, Binary64.Add(&e, a, bb), a)
	if sameFloat64(got, bb) {
		t.Fatal("expected ((1e16+1)-1e16) != 1")
	}
}

func TestPropIdentityFailsOnlyForNaN(t *testing.T) {
	var e Env
	prop := func(a uint64) bool {
		eq := Binary64.Eq(&e, a, a)
		return eq == !Binary64.IsNaN(a)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropNegationInvolutive(t *testing.T) {
	prop := func(a uint64) bool {
		return Binary64.Neg(Binary64.Neg(a))&Binary64.mask() == a&Binary64.mask()
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropSubIsAddNeg(t *testing.T) {
	var e Env
	prop := func(a, b uint64) bool {
		return sameFloat64(Binary64.Sub(&e, a, b), Binary64.Add(&e, a, Binary64.Neg(b)))
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropDivSelfIsOne(t *testing.T) {
	var e Env
	prop := func(a uint64) bool {
		if Binary64.IsNaN(a) || Binary64.IsZero(a) || Binary64.IsInf(a, 0) {
			return true
		}
		return Binary64.Div(&e, a, a) == b64(1)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropSqrtSquareWithinUlp(t *testing.T) {
	// sqrt(x)^2 is within 1 ulp of x for positive finite x (not exact:
	// a quiz-relevant subtlety).
	var e Env
	prop := func(a uint64) bool {
		if Binary64.IsNaN(a) || Binary64.SignBit(a) || Binary64.IsInf(a, 0) || Binary64.IsZero(a) {
			return true
		}
		s := Binary64.Sqrt(&e, a)
		back := Binary64.Mul(&e, s, s)
		if Binary64.IsInf(back, 0) || Binary64.IsZero(back) {
			return true // extreme range
		}
		diff := math.Abs(f64(back) - f64(a))
		return diff <= math.Abs(f64(a))*1e-15
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	var e Env
	prop := func(a, b uint64) bool {
		o1 := Binary64.CompareQuiet(&e, a, b)
		o2 := Binary64.CompareQuiet(&e, b, a)
		switch o1 {
		case Less:
			return o2 == Greater
		case Greater:
			return o2 == Less
		case Equal:
			return o2 == Equal
		case Unordered:
			return o2 == Unordered
		}
		return false
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestPropFMAExactWhenProductFits(t *testing.T) {
	// With small integer operands, fma(a,b,c) == a*b + c exactly.
	var e Env
	rng := newRng(t)
	for i := 0; i < 20000; i++ {
		a := b64(float64(rng.Intn(1 << 20)))
		b := b64(float64(rng.Intn(1 << 20)))
		c := b64(float64(rng.Intn(1 << 20)))
		fused := Binary64.FMA(&e, a, b, c)
		sep := Binary64.Add(&e, Binary64.Mul(&e, a, b), c)
		if !sameFloat64(fused, sep) {
			t.Fatalf("fma mismatch on exact case: %v*%v+%v", f64(a), f64(b), f64(c))
		}
	}
}

func TestPropFlagsMonotone(t *testing.T) {
	// Sticky flags never clear across operations.
	var e Env
	rng := newRng(t)
	prev := Flags(0)
	for i := 0; i < 5000; i++ {
		Binary64.Add(&e, randBits64(rng), randBits64(rng))
		if e.Flags&prev != prev {
			t.Fatal("sticky flags lost bits")
		}
		prev = e.Flags
	}
}

func TestPropConversionNarrowWiden16(t *testing.T) {
	// Any binary16 value widened to 32 or 64 and narrowed back is
	// unchanged (exact embedding).
	var e Env
	for x := uint64(0); x < 1<<16; x++ {
		if Binary16.IsNaN(x) {
			continue
		}
		via32 := Binary32.Convert(&e, Binary16, Binary16.Convert(&e, Binary32, x))
		if via32 != x {
			t.Fatalf("16->32->16 changed %#04x -> %#04x", x, via32)
		}
	}
}
