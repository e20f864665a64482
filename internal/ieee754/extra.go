package ieee754

import "math/bits"

// Bfloat16 is the "brain floating point" format used by ML hardware:
// the binary32 exponent range with only 8 bits of significand. The
// paper's introduction motivates the study with exactly this trend —
// reduced-precision formats spreading with machine learning.
var Bfloat16 = Format{ExpBits: 8, FracBits: 7, Name: "bfloat16"}

// NextUp returns the least value that compares greater than x
// (IEEE 754-2008 nextUp). nextUp(-0) = nextUp(+0) = minSubnormal,
// nextUp(+inf) = +inf, nextUp(NaN) = quieted NaN.
func (f Format) NextUp(x uint64) uint64 {
	switch {
	case f.IsNaN(x):
		return f.quiet(x)
	case f.IsInf(x, +1):
		return x
	case f.IsZero(x):
		return f.MinSubnormal()
	case f.SignBit(x):
		// Negative values move toward zero: decrement magnitude.
		return f.pack(true, 0, 0) | (x&^f.signMask() - 1)
	default:
		return x + 1 // encoding order matches value order for positives
	}
}

// NextDown returns the greatest value that compares less than x
// (IEEE 754-2008 nextDown): nextDown(x) = -nextUp(-x).
func (f Format) NextDown(x uint64) uint64 {
	return f.Neg(f.NextUp(f.Neg(x)))
}

// ScaleB returns x * 2^k with a single rounding (IEEE scaleB).
// Overflow and underflow behave as for multiplication.
func (f Format) ScaleB(e *Env, x uint64, k int) uint64 {
	e.begin()
	r := f.scaleB(e, x, k)
	return e.finish(r)
}

func (f Format) scaleB(e *Env, x uint64, k int) uint64 {
	if f.IsNaN(x) {
		return f.propagateNaN(e, x, x)
	}
	x = e.daz(f, x)
	if f.IsInf(x, 0) || f.IsZero(x) || k == 0 {
		return x
	}
	u := f.unpackFinite(x)
	// Clamp k so exponent arithmetic cannot overflow int.
	if k > 1<<20 {
		k = 1 << 20
	}
	if k < -(1 << 20) {
		k = -(1 << 20)
	}
	return f.roundPack(e, u.sign, u.exp+k, u.sig, false)
}

// LogB returns the exponent of x as an integer: floor(log2(|x|)), per
// IEEE logB. logB(0) raises divide-by-zero conceptually; here it
// returns the most negative int and raises the flag. logB(inf) returns
// MaxInt, logB(NaN) raises invalid.
func (f Format) LogB(e *Env, x uint64) int {
	e.begin()
	var r int
	switch {
	case f.IsNaN(x):
		e.raise(FlagInvalid)
		r = -1 << 62
	case f.IsInf(x, 0):
		r = 1<<62 - 1
	case f.IsZero(x):
		e.raise(FlagDivByZero)
		r = -1 << 62
	default:
		x = e.daz(f, x)
		if f.IsZero(x) {
			e.raise(FlagDivByZero)
			r = -1 << 62
		} else {
			u := f.unpackFinite(x)
			r = u.exp
		}
	}
	e.commit()
	return r
}

// Ulp returns the magnitude of one unit in the last place of x: the gap
// between |x| and the next representable magnitude. For zeros and
// subnormals it is the minimum subnormal; for infinities and NaN it
// returns a NaN.
func (f Format) Ulp(x uint64) uint64 {
	if !f.IsFinite(x) {
		return f.QNaN()
	}
	if f.IsZero(x) || f.IsSubnormal(x) {
		return f.MinSubnormal()
	}
	u := f.unpackFinite(x)
	// ulp = 2^(exp - FracBits).
	e := u.exp - int(f.FracBits)
	if e < f.Emin()-int(f.FracBits) {
		return f.MinSubnormal()
	}
	if e >= f.Emin() {
		return f.pack(false, uint64(e+f.Bias()), 0)
	}
	// Subnormal ulp: 2^e with e below Emin.
	shift := uint(f.Emin() - e)
	return f.MinNormal() >> shift
}

// TrapError reports a floating point exception delivered as a trap: the
// model of running with unmasked exceptions (feenableexcept/SIGFPE),
// the behaviour the paper's Exception Signal question asks about. It is
// returned by TrappingOp wrappers, never by the default-environment
// entry points — by default IEEE exceptions only set sticky flags.
type TrapError struct {
	Op     string
	Raised Flags
	Result uint64
}

// Error renders the trap like a runtime diagnostic.
func (t *TrapError) Error() string {
	return "floating point exception: " + t.Raised.String() + " in " + t.Op
}

// TrapMask on an Env selects which exceptions cause the Trapping*
// wrappers to return a TrapError. The default (zero) mask never traps —
// matching real hardware defaults, and the correct answer to the
// Exception Signal question.

// AddT is Add with trap delivery per mask: if the operation raises any
// flag in mask, the result is still computed (non-stop semantics are
// suspended) and a TrapError describes the exception.
func (f Format) AddT(e *Env, mask Flags, a, b uint64) (uint64, error) {
	return f.trapWrap(e, mask, f.Add(e, a, b), "add")
}

// SubT is Sub with trap delivery per mask.
func (f Format) SubT(e *Env, mask Flags, a, b uint64) (uint64, error) {
	return f.trapWrap(e, mask, f.Sub(e, a, b), "sub")
}

// MulT is Mul with trap delivery per mask.
func (f Format) MulT(e *Env, mask Flags, a, b uint64) (uint64, error) {
	return f.trapWrap(e, mask, f.Mul(e, a, b), "mul")
}

// DivT is Div with trap delivery per mask.
func (f Format) DivT(e *Env, mask Flags, a, b uint64) (uint64, error) {
	return f.trapWrap(e, mask, f.Div(e, a, b), "div")
}

// SqrtT is Sqrt with trap delivery per mask.
func (f Format) SqrtT(e *Env, mask Flags, a uint64) (uint64, error) {
	return f.trapWrap(e, mask, f.Sqrt(e, a), "sqrt")
}

func (f Format) trapWrap(e *Env, mask Flags, result uint64, op string) (uint64, error) {
	if raised := e.LastRaised & mask; raised != 0 {
		return result, &TrapError{Op: op, Raised: raised, Result: result}
	}
	return result, nil
}

// DecomposeInt splits a finite x into integer significand and base-2
// exponent such that x = (-1)^sign * sig * 2^exp exactly, with sig
// having no trailing zero bits (sig == 0 only for zeros).
func (f Format) DecomposeInt(x uint64) (sign bool, sig uint64, exp int) {
	sign = f.SignBit(x)
	if !f.IsFinite(x) || f.IsZero(x) {
		return sign, 0, 0
	}
	u := f.unpackFinite(x)
	tz := bits.TrailingZeros64(u.sig)
	sig = u.sig >> uint(tz)
	exp = u.exp - (63 - tz)
	return sign, sig, exp
}
