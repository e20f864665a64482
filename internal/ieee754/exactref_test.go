package ieee754

// An exact reference for the softfloat, built on math/big.
//
// The hardware cross-checks and the binary16 double-rounding oracle see
// only round-to-nearest-even and no flags. The reference here derives
// every result and every flag independently of this package's code:
// math/big computes each operation exactly, or truncates it at refPrec
// bits and rounds it to odd, then rounds that once to the format's
// precision under the mode. Rounding to odd at more than p+1 bits keeps
// every p-bit rounding decision (ties included), so one final rounding
// is correct. The package's documented rules turn the outcome into the
// six flags:
//
//   - inexact: the delivered value differs from the exact one;
//   - underflow: the exact result is tiny (nonzero and below the
//     smallest normal: tininess before rounding) and inexact;
//   - overflow: the result rounded with an unbounded exponent is above
//     the largest finite value (overflow after rounding); the delivered
//     value saturates by mode and is inexact;
//   - invalid and divide-by-zero: the IEEE 754 special cases, with the
//     NaN rules of propagateNaN, Convert and FMA;
//   - denormal: an operand is subnormal, or the rounded result is;
//   - FTZ replaces a subnormal rounded result by a zero and raises
//     underflow and inexact; DAZ reads a subnormal operand as a zero.
//
// A result that needs no rounding because it is an operand (x ± 0, and
// fma(0, y, c) = c) is delivered as it is, so FTZ does not flush it.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refPrec is the working precision of the reference. Every sum,
// product and FMA of the three formats is exact at this precision, and
// quotients are rounded to odd. Square roots use sqrtPrec: squaring
// decides whether a root is exact, and a stand-in at any precision
// above p+1 rounds like the root, so the binary16 sweep stays cheap.
const (
	refPrec  = 4096
	sqrtPrec = 128
)

type refOp uint8

const (
	refAdd refOp = iota
	refSub
	refMul
	refDiv
	refSqrt
	refFMA
	refConvert     // f.Convert to g
	refFromFloat64 // g.FromFloat64 (f is Binary64)
	refOps
)

var refOpNames = [refOps]string{"add", "sub", "mul", "div", "sqrt", "fma", "convert", "fromfloat64"}

var refFormats = []Format{Binary16, Binary32, Binary64}

// bigMode maps the package's rounding modes to math/big's.
var bigMode = [...]big.RoundingMode{
	NearestEven:    big.ToNearestEven,
	NearestAway:    big.ToNearestAway,
	TowardZero:     big.ToZero,
	TowardPositive: big.ToPositiveInf,
	TowardNegative: big.ToNegativeInf,
}

// refCase is one operation: operands in f, the result in g (g differs
// from f only for the conversions).
type refCase struct {
	op       refOp
	f, g     Format
	mode     RoundingMode
	ftz, daz bool
	a, b, c  uint64
}

func (k refCase) arity() int {
	switch k.op {
	case refSqrt, refConvert, refFromFloat64:
		return 1
	case refFMA:
		return 3
	}
	return 2
}

func (k refCase) String() string {
	s := fmt.Sprintf("%s %s", refOpNames[k.op], k.f.Name)
	if k.f != k.g {
		s += "->" + k.g.Name
	}
	s += fmt.Sprintf(" %v ftz=%v daz=%v (%#x", k.mode, k.ftz, k.daz, k.a)
	if k.arity() > 1 {
		s += fmt.Sprintf(", %#x", k.b)
	}
	if k.arity() > 2 {
		s += fmt.Sprintf(", %#x", k.c)
	}
	return s + ")"
}

// got runs the case on the softfloat.
func (k refCase) got() (uint64, Flags) {
	e := Env{Rounding: k.mode, FTZ: k.ftz, DAZ: k.daz}
	var r uint64
	switch k.op {
	case refAdd:
		r = k.f.Add(&e, k.a, k.b)
	case refSub:
		r = k.f.Sub(&e, k.a, k.b)
	case refMul:
		r = k.f.Mul(&e, k.a, k.b)
	case refDiv:
		r = k.f.Div(&e, k.a, k.b)
	case refSqrt:
		r = k.f.Sqrt(&e, k.a)
	case refFMA:
		r = k.f.FMA(&e, k.a, k.b, k.c)
	case refConvert:
		r = k.f.Convert(&e, k.g, k.a)
	case refFromFloat64:
		r = k.g.FromFloat64(&e, math.Float64frombits(k.a))
	}
	return r, e.LastRaised
}

// mismatch returns "" when the softfloat agrees with the reference bit
// for bit, flags included, and a description otherwise.
func (k refCase) mismatch() string {
	r, fl := k.got()
	wr, wfl := k.want()
	if r == wr && fl == wfl {
		return ""
	}
	return fmt.Sprintf("%v: got %#x flags %v, want %#x flags %v", k, r, fl, wr, wfl)
}

// want derives the result and the raised flags from the operands.
func (k refCase) want() (uint64, Flags) {
	f, g := k.f, k.g
	ops := []uint64{k.a, k.b, k.c}[:k.arity()]
	if r, fl, ok := k.nanResult(ops); ok {
		return r, fl
	}
	var fl Flags
	for i, x := range ops {
		if f.IsSubnormal(x) {
			fl |= FlagDenormal
			if k.daz {
				ops[i] = f.Zero(f.SignBit(x))
			}
		}
	}
	inf := func(x uint64) bool { return f.IsInf(x, 0) }
	zero, sign := f.IsZero, f.SignBit
	switch k.op {
	case refAdd, refSub:
		a, b := ops[0], ops[1]
		sa, sb := sign(a), sign(b) != (k.op == refSub)
		switch {
		case inf(a) && inf(b) && sa != sb:
			return g.QNaN(), fl | FlagInvalid
		case inf(a):
			return g.Inf(sa), fl
		case inf(b):
			return g.Inf(sb), fl
		case zero(a) && zero(b):
			return g.Zero(k.zeroSumSign(sa, sb)), fl
		case zero(a):
			return f.CopySign(b, g.Zero(sb)), fl
		case zero(b):
			return a, fl
		}
		y := refValue(f, b)
		if k.op == refSub {
			y.Neg(y)
		}
		return k.round(toOdd(newRef().Add(refValue(f, a), y)), fl)
	case refMul:
		a, b := ops[0], ops[1]
		s := sign(a) != sign(b)
		switch {
		case inf(a) && zero(b), zero(a) && inf(b):
			return g.QNaN(), fl | FlagInvalid
		case inf(a) || inf(b):
			return g.Inf(s), fl
		case zero(a) || zero(b):
			return g.Zero(s), fl
		}
		return k.round(toOdd(newRef().Mul(refValue(f, a), refValue(f, b))), fl)
	case refDiv:
		a, b := ops[0], ops[1]
		s := sign(a) != sign(b)
		switch {
		case inf(a) && inf(b), zero(a) && zero(b):
			return g.QNaN(), fl | FlagInvalid
		case inf(a):
			return g.Inf(s), fl
		case inf(b):
			return g.Zero(s), fl
		case zero(b):
			return g.Inf(s), fl | FlagDivByZero
		case zero(a):
			return g.Zero(s), fl
		}
		return k.round(toOdd(newRef().Quo(refValue(f, a), refValue(f, b))), fl)
	case refSqrt:
		a := ops[0]
		switch {
		case zero(a):
			return g.Zero(sign(a)), fl
		case sign(a):
			return g.QNaN(), fl | FlagInvalid
		case inf(a):
			return g.Inf(false), fl
		}
		return k.round(refSqrtOdd(refValue(f, a)), fl)
	case refFMA:
		a, b, c := ops[0], ops[1], ops[2]
		sp := sign(a) != sign(b)
		switch {
		case inf(a) && zero(b), zero(a) && inf(b):
			return g.QNaN(), fl | FlagInvalid
		case (inf(a) || inf(b)) && inf(c) && sign(c) != sp:
			return g.QNaN(), fl | FlagInvalid
		case inf(a) || inf(b):
			return g.Inf(sp), fl
		case inf(c):
			return c, fl
		case (zero(a) || zero(b)) && zero(c):
			return g.Zero(k.zeroSumSign(sp, sign(c))), fl
		case zero(a) || zero(b):
			return c, fl
		}
		p := newRef().Mul(refValue(f, a), refValue(f, b))
		return k.round(toOdd(newRef().Add(p, refValue(f, c))), fl)
	default: // refConvert, refFromFloat64
		a := ops[0]
		switch {
		case inf(a):
			return g.Inf(sign(a)), fl
		case zero(a):
			return g.Zero(sign(a)), fl
		}
		return k.round(refValue(f, a), fl)
	}
}

// zeroSumSign is the sign of an exact zero sum of terms with signs sa
// and sb (IEEE 754 §6.3): their common sign, else + except when
// rounding toward negative.
func (k refCase) zeroSumSign(sa, sb bool) bool {
	if sa == sb {
		return sa
	}
	return k.mode == TowardNegative
}

// nanResult applies the NaN rules when an operand is a NaN: a signaling
// NaN operand raises invalid and the result is the first NaN operand,
// quieted. Convert moves the payload to the top of the destination's
// field; FMA's 0 × ∞ is invalid even when c is a quiet NaN, and then
// delivers the default NaN. NaN operands are handled before DAZ reads
// the others, so no denormal flag is raised.
func (k refCase) nanResult(ops []uint64) (uint64, Flags, bool) {
	f, g := k.f, k.g
	first := -1
	var fl Flags
	for i, x := range ops {
		if f.IsNaN(x) {
			if first < 0 {
				first = i
			}
			if f.IsSignalingNaN(x) {
				fl |= FlagInvalid
			}
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	if k.op == refFMA && first == 2 {
		a, b := ops[0], ops[1]
		if f.IsInf(a, 0) && f.IsZero(b) || f.IsZero(a) && f.IsInf(b, 0) {
			return g.QNaN(), FlagInvalid, true
		}
	}
	x := ops[first]
	if f == g {
		return x | g.QNaN(), fl, true
	}
	payload := x & (1<<(f.FracBits-1) - 1)
	if f.FracBits > g.FracBits {
		payload >>= f.FracBits - g.FracBits
	} else {
		payload <<= g.FracBits - f.FracBits
	}
	r := g.QNaN() | payload&(1<<(g.FracBits-1)-1)
	if f.SignBit(x) {
		r = g.Neg(r)
	}
	return r, fl, true
}

// round rounds the exact value x (or its round-to-odd stand-in) once
// into g under the case's mode and derives the flags.
func (k refCase) round(x *big.Float, fl Flags) (uint64, Flags) {
	g := k.g
	if x.Sign() == 0 {
		// An exact zero sum of nonzero terms.
		return g.Zero(k.mode == TowardNegative), fl
	}
	neg := x.Signbit()
	minNormal := pow2(g.Emin())
	if neg {
		minNormal.Neg(minNormal)
	}
	tiny := cmpAbs(x, minNormal) < 0
	y := x
	if tiny {
		// Adding ±2^Emin moves a tiny value into the binade whose
		// spacing at precision p is the subnormal spacing, so one
		// rounding at p bits rounds it onto the subnormal grid.
		y = toOdd(newRef().Add(x, minNormal))
	}
	r := new(big.Float).SetPrec(g.Precision()).SetMode(bigMode[k.mode]).Set(y)
	inexact := r.Acc() != big.Exact
	if tiny {
		r = new(big.Float).SetPrec(refPrec).Sub(r, minNormal) // exact
	}
	if !tiny && cmpAbs(r, refValue(g, g.MaxFinite(neg))) > 0 {
		return k.overflowResult(neg), fl | FlagOverflow | FlagInexact
	}
	if inexact {
		fl |= FlagInexact
		if tiny {
			fl |= FlagUnderflow
		}
	}
	if r.Sign() == 0 {
		return g.Zero(neg), fl
	}
	if cmpAbs(r, minNormal) < 0 {
		fl |= FlagDenormal
		if k.ftz {
			return g.Zero(neg), fl | FlagUnderflow | FlagInexact
		}
	}
	return refEncode(g, r), fl
}

// overflowResult is the saturated result of IEEE 754 §7.4: the nearest
// modes deliver an infinity; a directed mode delivers an infinity when
// it rounds away from zero for that sign, else the largest finite value.
func (k refCase) overflowResult(neg bool) uint64 {
	toInf := true
	switch k.mode {
	case TowardZero:
		toInf = false
	case TowardPositive:
		toInf = !neg
	case TowardNegative:
		toInf = neg
	}
	if toInf {
		return k.g.Inf(neg)
	}
	return k.g.MaxFinite(neg)
}

// newRef returns a float that truncates toward zero at refPrec bits.
func newRef() *big.Float { return new(big.Float).SetPrec(refPrec).SetMode(big.ToZero) }

// toOdd takes z just truncated toward zero and, when the truncation was
// inexact, appends one set bit below its last: z then lies strictly
// between the same two refPrec-bit neighbours as the exact value, which
// is rounding to odd at refPrec+1 bits.
func toOdd(z *big.Float) *big.Float {
	if z.Acc() == big.Exact {
		return z
	}
	half := pow2(z.MantExp(nil) - int(z.Prec()) - 1)
	if z.Signbit() {
		half.Neg(half)
	}
	return z.SetPrec(z.Prec()+1).Add(z, half)
}

// refSqrtOdd returns the square root of a positive x, or a stand-in that
// rounds like it. big.Float.Sqrt rounds to nearest whatever the mode and
// leaves Acc undefined, so the square of the root decides exactness. An
// inexact root is irrational, hence strictly within half an ulp of r on
// the side the square shows; a quarter ulp toward it lies in the same
// gap between sqrtPrec+1-bit neighbours.
func refSqrtOdd(x *big.Float) *big.Float {
	r := new(big.Float).SetPrec(sqrtPrec).Sqrt(x)
	sq := new(big.Float).SetPrec(2*sqrtPrec).Mul(r, r)
	c := sq.Cmp(x)
	if c == 0 {
		return r
	}
	quarter := pow2(r.MantExp(nil) - sqrtPrec - 2)
	if c > 0 {
		quarter.Neg(quarter)
	}
	return new(big.Float).SetPrec(sqrtPrec+2).Add(r, quarter)
}

// pow2 returns 2^n.
func pow2(n int) *big.Float {
	return new(big.Float).SetMantExp(big.NewFloat(0.5), n+1)
}

// cmpAbs compares |x| and |y| for x and y of the same sign.
func cmpAbs(x, y *big.Float) int {
	if x.Signbit() {
		return y.Cmp(x)
	}
	return x.Cmp(y)
}

// refValue is the exact value of the finite encoding x in f, read from
// its fields.
func refValue(f Format, x uint64) *big.Float {
	field := x >> f.FracBits & (1<<f.ExpBits - 1)
	n := x & (1<<f.FracBits - 1)
	e := f.Emin()
	if field != 0 {
		n |= 1 << f.FracBits
		e = int(field) - f.Bias()
	}
	v := new(big.Float).SetUint64(n)
	v.SetMantExp(v, e-int(f.FracBits))
	if x>>(f.TotalBits()-1)&1 == 1 {
		v.Neg(v)
	}
	return v
}

// refEncode is the encoding in g of the nonzero finite value r, which
// must lie on g's grid.
func refEncode(g Format, r *big.Float) uint64 {
	p := int(g.Precision())
	e := r.MantExp(nil) - 1 // |r| is in [2^e, 2^(e+1))
	field := 0
	if e >= g.Emin() {
		field = e + g.Bias()
	} else {
		e = g.Emin()
	}
	m := new(big.Float).Abs(r)
	n, acc := m.SetMantExp(m, p-1-e).Uint64()
	if acc != big.Exact {
		panic(fmt.Sprintf("refEncode: %v is not on the %s grid", r, g.Name))
	}
	x := uint64(field)<<g.FracBits | n&(1<<g.FracBits-1)
	if r.Signbit() {
		x |= 1 << (g.TotalBits() - 1)
	}
	return x
}

// refGen draws operands. Uniform bit patterns almost never make a tie,
// a result below the smallest subnormal, one that rounds up to the
// smallest normal, or an overflow. So most operands are built from an
// exponent and a significand of a chosen shape, and the second operand
// of a product or quotient is scaled so that the result lands in one of
// those places.
type refGen struct{ rng *rand.Rand }

// operand builds a finite value in f near 2^exp (clamped to f's range)
// with a random sign and a significand that is a power of two, all
// ones, short (ties) or random.
func (gen refGen) operand(f Format, exp int) uint64 {
	rng := gen.rng
	p := int(f.Precision())
	exp = max(f.Emin()-p+1, min(exp, f.Emax()))
	var sig uint64 // p bits, top bit set
	switch rng.Intn(4) {
	case 0:
		sig = 1 << (p - 1)
	case 1:
		sig = 1<<p - 1
	case 2:
		sig = (rng.Uint64() | 1<<63) >> (64 - p) &^ (1<<rng.Intn(p) - 1)
	default:
		sig = (rng.Uint64() | 1<<63) >> (64 - p)
	}
	var x uint64
	if exp < f.Emin() {
		x = sig >> (f.Emin() - exp)
	} else {
		x = uint64(exp+f.Bias())<<f.FracBits | sig&(1<<f.FracBits-1)
	}
	if rng.Intn(2) == 0 {
		x |= 1 << (f.TotalBits() - 1)
	}
	return x
}

// exponent draws an operand exponent: anywhere, near 1, near the
// subnormal range or near overflow.
func (gen refGen) exponent(f Format) int {
	rng := gen.rng
	p := int(f.Precision())
	switch rng.Intn(4) {
	case 0:
		return f.Emin() - p + 1 + rng.Intn(f.Emax()-f.Emin()+p)
	case 1:
		return rng.Intn(2*p) - p
	case 2:
		return f.Emin() - p + 1 + rng.Intn(p+2)
	}
	return f.Emax() - rng.Intn(4)
}

// target draws a result exponent: below half the smallest subnormal, at
// half of it, in the subnormal range, just below the smallest normal,
// at overflow, or anywhere.
func (gen refGen) target(f Format) int {
	rng := gen.rng
	p := int(f.Precision())
	switch rng.Intn(6) {
	case 0:
		return f.Emin() - p - 1 - rng.Intn(96)
	case 1:
		return f.Emin() - p + rng.Intn(2)
	case 2:
		return f.Emin() - p + 1 + rng.Intn(p)
	case 3:
		return f.Emin() - 1 - rng.Intn(2)
	case 4:
		return f.Emax() + rng.Intn(2)
	}
	return gen.exponent(f)
}

// special draws a zero, infinity, NaN or extreme finite value, with a
// random sign.
func (gen refGen) special(f Format) uint64 {
	vals := []uint64{
		f.Zero(false), f.Inf(false), f.QNaN(), f.SNaN(), f.QNaN() | 0x5, f.SNaN() | 0x6,
		f.MinSubnormal(), f.MinNormal() - 1, f.MinNormal(), f.MaxFinite(false), f.One(false),
	}
	return vals[gen.rng.Intn(len(vals))] ^ uint64(gen.rng.Intn(2))*f.signMask()
}

// operands draws the operands of op for operands in f and results in g.
func (gen refGen) operands(op refOp, f, g Format) (a, b, c uint64) {
	rng := gen.rng
	switch rng.Intn(10) {
	case 0:
		return rng.Uint64() & f.mask(), rng.Uint64() & f.mask(), rng.Uint64() & f.mask()
	case 1:
		pick := func() uint64 {
			if rng.Intn(2) == 0 {
				return gen.special(f)
			}
			return gen.operand(f, gen.exponent(f))
		}
		return pick(), pick(), pick()
	}
	ea := gen.exponent(f)
	a = gen.operand(f, ea)
	switch op {
	case refAdd, refSub:
		switch rng.Intn(3) {
		case 0: // cancellation, into the subnormal range near Emin
			b = a ^ uint64(rng.Intn(16)) ^ uint64(rng.Intn(2))*f.signMask()
		case 1: // close exponents: ties and carries
			b = gen.operand(f, ea-rng.Intn(int(f.Precision())+3))
		default:
			b = gen.operand(f, gen.exponent(f))
		}
	case refMul:
		b = gen.operand(f, gen.target(f)-ea)
	case refDiv:
		b = gen.operand(f, ea-gen.target(f))
	case refFMA:
		t := gen.target(f)
		b = gen.operand(f, t-ea)
		c = gen.operand(f, t-rng.Intn(int(f.Precision())+3))
	case refConvert, refFromFloat64:
		a = gen.operand(f, gen.target(g))
	}
	return a, b, c
}

// refCombos lists every (op, operand format, result format) the
// reference covers.
func refCombos() []refCase {
	var out []refCase
	for _, f := range refFormats {
		for op := refAdd; op <= refFMA; op++ {
			out = append(out, refCase{op: op, f: f, g: f})
		}
		for _, g := range refFormats {
			out = append(out, refCase{op: refConvert, f: f, g: g})
		}
		out = append(out, refCase{op: refFromFloat64, f: Binary64, g: f})
	}
	return out
}

// refChecker runs cases in every mode and FTZ/DAZ setting, counts the
// mismatches and reports the first few.
type refChecker struct {
	t             *testing.T
	checks, fails int
	reached       map[string]int // result kinds seen, by format
}

func (rc *refChecker) check(k refCase) {
	for m := NearestEven; m <= TowardNegative; m++ {
		for env := 0; env < 4; env++ {
			k.mode, k.ftz, k.daz = m, env&1 != 0, env&2 != 0
			rc.checkOne(k)
		}
	}
}

func (rc *refChecker) checkOne(k refCase) {
	rc.checks++
	if msg := k.mismatch(); msg != "" {
		rc.fails++
		if rc.fails <= 10 {
			rc.t.Error(msg)
		}
	}
	if rc.reached == nil {
		return
	}
	r, fl := k.got() // the reference's result, unless reported above
	g := k.g
	mag := g.Abs(r)
	kind := ""
	switch {
	case fl.Has(FlagOverflow):
		kind = "overflow"
	case !fl.Has(FlagUnderflow) || k.ftz:
	case mag == 0:
		kind = "underflow to zero"
	case mag == g.MinSubnormal():
		kind = "underflow to the smallest subnormal"
	case mag == g.MinNormal():
		kind = "underflow up to the smallest normal"
	}
	if kind != "" {
		rc.reached[g.Name+" "+kind]++
	}
}

func (rc *refChecker) report() {
	if rc.fails > 0 {
		rc.t.Errorf("%d mismatches in %d checks", rc.fails, rc.checks)
	}
}

// TestExactReference compares result bits and flags of every operation
// and conversion with the reference, on biased random operands, in all
// five modes with FTZ and DAZ off and on.
func TestExactReference(t *testing.T) {
	t.Parallel()
	const tuples = 400
	gen := refGen{rand.New(rand.NewSource(35))}
	rc := refChecker{t: t, reached: map[string]int{}}
	for _, k := range refCombos() {
		for i := 0; i < tuples; i++ {
			k.a, k.b, k.c = gen.operands(k.op, k.f, k.g)
			if k.op == refSqrt && i%4 != 0 {
				k.a = k.f.Abs(k.a)
			}
			rc.check(k)
		}
	}
	rc.report()
	for _, f := range refFormats {
		for _, kind := range []string{"overflow", "underflow to zero", "underflow to the smallest subnormal", "underflow up to the smallest normal"} {
			if rc.reached[f.Name+" "+kind] == 0 {
				t.Errorf("no %s result reached %s", f.Name, kind)
			}
		}
	}
	t.Logf("%d checks; results reached: %v", rc.checks, rc.reached)
}

// TestExactReferenceRandomFormats runs the reference on formats nobody
// ships: the softfloat and the reference are both parametric in
// (ExpBits, FracBits).
func TestExactReferenceRandomFormats(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	gen := refGen{rng}
	rc := refChecker{t: t}
	for i := 0; i < 24; i++ {
		f := randFormat(rng)
		for op := refAdd; op <= refFMA; op++ {
			for j := 0; j < 10; j++ {
				k := refCase{op: op, f: f, g: f}
				k.a, k.b, k.c = gen.operands(op, f, f)
				rc.check(k)
			}
		}
		for j := 0; j < 10; j++ {
			k := refCase{op: refConvert, f: f, g: Binary64}
			k.a, _, _ = gen.operands(refConvert, f, Binary64)
			rc.check(k)
			k = refCase{op: refFromFloat64, f: Binary64, g: f}
			k.a, _, _ = gen.operands(refFromFloat64, Binary64, f)
			rc.check(k)
		}
	}
	rc.report()
}

// TestExactReferenceSqrt16Exhaustive checks binary16 Sqrt on every
// encoding in every mode; FTZ and DAZ can change only a subnormal
// operand's result, so those run in all four settings.
func TestExactReferenceSqrt16Exhaustive(t *testing.T) {
	t.Parallel()
	rc := refChecker{t: t}
	for x := uint64(0); x < 1<<16; x++ {
		k := refCase{op: refSqrt, f: Binary16, g: Binary16, a: x}
		if Binary16.IsSubnormal(x) {
			rc.check(k)
			continue
		}
		for m := NearestEven; m <= TowardNegative; m++ {
			k.mode = m
			rc.checkOne(k)
		}
	}
	rc.report()
}

// FuzzExactReference checks one case against the reference; the seed
// corpus in testdata/fuzz holds one input per rule above. The op,
// the formats (operand format formats%3, result format formats/3%3 for
// the conversions), the mode and FTZ/DAZ (env bits 0 and 1) are taken
// modulo their ranges, and the operands are masked to the format.
func FuzzExactReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, formats, mode, env uint8, a, b, c uint64) {
		k := refCase{
			op:   refOp(op % uint8(refOps)),
			f:    refFormats[formats%3],
			g:    refFormats[formats/3%3],
			mode: RoundingMode(mode % 5),
			ftz:  env&1 != 0,
			daz:  env&2 != 0,
		}
		switch k.op {
		case refConvert:
		case refFromFloat64:
			k.f = Binary64
		default:
			k.g = k.f
		}
		k.a, k.b, k.c = a&k.f.mask(), b&k.f.mask(), c&k.f.mask()
		if msg := k.mismatch(); msg != "" {
			t.Fatal(msg)
		}
	})
}
