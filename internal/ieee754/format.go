// Package ieee754 is a from-scratch software implementation of IEEE 754
// binary floating point arithmetic.
//
// It implements binary formats parametrically: binary16, binary32,
// binary64, bfloat16 and any layout with 2 to 15 exponent bits and 2 to
// 52 fraction bits. Each has all five rounding-direction attributes,
// the five standard exception flags (plus a non-standard
// denormal-operand flag, as found on x86), the four basic operations,
// fused multiply-add, square root, conversions and comparisons. It also
// models two common non-standard hardware behaviours: flush-to-zero
// (FTZ) results and denormals-are-zero (DAZ) operands.
//
// The package is what the quiz oracles (internal/oracle) run to derive
// the answer key, whose table internal/quiz checks in. Its tests check
// the arithmetic and conversions against an exact math/big reference
// and the comparisons against hardware.
//
// Values are represented as raw bit patterns (uint64) interpreted by a
// Format. All arithmetic goes through an Env, which carries the rounding
// mode, sticky exception flags and FTZ/DAZ controls.
package ieee754

import "math/bits"

// Format describes a binary interchange format: a sign bit, ExpBits
// exponent bits, and FracBits trailing-significand bits.
type Format struct {
	ExpBits  uint
	FracBits uint
	Name     string
}

// The three standard interchange formats implemented by this package.
var (
	Binary16 = Format{ExpBits: 5, FracBits: 10, Name: "binary16"}
	Binary32 = Format{ExpBits: 8, FracBits: 23, Name: "binary32"}
	Binary64 = Format{ExpBits: 11, FracBits: 52, Name: "binary64"}
)

// Bfloat16 is the "brain floating point" format used by ML hardware:
// the binary32 exponent range with only 8 bits of significand. The
// paper's introduction motivates the study with exactly this trend —
// reduced-precision formats spreading with machine learning.
var Bfloat16 = Format{ExpBits: 8, FracBits: 7, Name: "bfloat16"}

// TotalBits is the full encoding width (1 + ExpBits + FracBits).
func (f Format) TotalBits() uint { return 1 + f.ExpBits + f.FracBits }

// Precision is the significand precision in bits, including the implicit
// leading bit (p = FracBits + 1).
func (f Format) Precision() uint { return f.FracBits + 1 }

// Bias is the exponent bias (2^(ExpBits-1) - 1).
func (f Format) Bias() int { return (1 << (f.ExpBits - 1)) - 1 }

// Emax is the maximum unbiased exponent of a finite number.
func (f Format) Emax() int { return f.Bias() }

// Emin is the minimum unbiased exponent of a normal number (1 - Bias).
func (f Format) Emin() int { return 1 - f.Bias() }

// expMask is the biased exponent field mask (all-ones means inf/NaN).
func (f Format) expMask() uint64 { return (1 << f.ExpBits) - 1 }

// fracMask is the trailing-significand field mask.
func (f Format) fracMask() uint64 { return (1 << f.FracBits) - 1 }

// signMask is the sign bit mask.
func (f Format) signMask() uint64 { return 1 << (f.ExpBits + f.FracBits) }

// quietBit is the bit in the fraction field that distinguishes quiet NaNs.
func (f Format) quietBit() uint64 { return 1 << (f.FracBits - 1) }

// mask is the mask covering all encoding bits of the format.
func (f Format) mask() uint64 {
	if f.TotalBits() >= 64 {
		return ^uint64(0)
	}
	return (1 << f.TotalBits()) - 1
}

// Field accessors on raw encodings.

// SignBit reports whether the sign bit of x is set.
func (f Format) SignBit(x uint64) bool { return x&f.signMask() != 0 }

// biasedExp extracts the biased exponent field.
func (f Format) biasedExp(x uint64) uint64 { return (x >> f.FracBits) & f.expMask() }

// frac extracts the trailing significand field.
func (f Format) frac(x uint64) uint64 { return x & f.fracMask() }

// IsNaN reports whether x encodes a NaN (quiet or signaling).
func (f Format) IsNaN(x uint64) bool {
	return f.biasedExp(x) == f.expMask() && f.frac(x) != 0
}

// IsSignalingNaN reports whether x encodes a signaling NaN.
func (f Format) IsSignalingNaN(x uint64) bool {
	return f.IsNaN(x) && f.frac(x)&f.quietBit() == 0
}

// IsInf reports whether x encodes an infinity. sign > 0 restricts to
// +Inf, sign < 0 to -Inf, and sign == 0 accepts either.
func (f Format) IsInf(x uint64, sign int) bool {
	if f.biasedExp(x) != f.expMask() || f.frac(x) != 0 {
		return false
	}
	if sign > 0 {
		return !f.SignBit(x)
	}
	if sign < 0 {
		return f.SignBit(x)
	}
	return true
}

// IsZero reports whether x encodes a zero of either sign.
func (f Format) IsZero(x uint64) bool {
	return f.biasedExp(x) == 0 && f.frac(x) == 0
}

// IsSubnormal reports whether x encodes a nonzero subnormal number.
func (f Format) IsSubnormal(x uint64) bool {
	return f.biasedExp(x) == 0 && f.frac(x) != 0
}

// Canonical constant encodings.

// Zero returns the encoding of a zero with the given sign.
func (f Format) Zero(negative bool) uint64 {
	if negative {
		return f.signMask()
	}
	return 0
}

// Inf returns the encoding of an infinity with the given sign.
func (f Format) Inf(negative bool) uint64 {
	x := f.expMask() << f.FracBits
	if negative {
		x |= f.signMask()
	}
	return x
}

// QNaN returns the canonical quiet NaN (positive sign, quiet bit set,
// remaining payload zero).
func (f Format) QNaN() uint64 {
	return f.expMask()<<f.FracBits | f.quietBit()
}

// One returns the encoding of ±1.0.
func (f Format) One(negative bool) uint64 {
	x := uint64(f.Bias()) << f.FracBits
	if negative {
		x |= f.signMask()
	}
	return x
}

// MaxFinite returns the largest-magnitude finite encoding with the given
// sign.
func (f Format) MaxFinite(negative bool) uint64 {
	x := (f.expMask()-1)<<f.FracBits | f.fracMask()
	if negative {
		x |= f.signMask()
	}
	return x
}

// MinNormal returns the smallest-magnitude positive normal encoding.
func (f Format) MinNormal() uint64 { return 1 << f.FracBits }

// MinSubnormal returns the smallest-magnitude positive subnormal encoding.
func (f Format) MinSubnormal() uint64 { return 1 }

// Neg returns x with its sign bit flipped. Per IEEE 754 negate is a
// quiet, non-computational sign operation: it applies to NaNs as well and
// raises no flags.
func (f Format) Neg(x uint64) uint64 { return x ^ f.signMask() }

// unpacked is the internal working representation of a finite nonzero
// value: (-1)^sign * (sig / 2^63) * 2^exp, with sig normalized so its
// most significant bit is bit 63.
type unpacked struct {
	sign bool
	exp  int
	sig  uint64
}

// unpackFinite decodes a finite nonzero value into normalized form.
// x must not be zero, inf, or NaN.
func (f Format) unpackFinite(x uint64) unpacked {
	var u unpacked
	u.sign = f.SignBit(x)
	e := f.biasedExp(x)
	fr := f.frac(x)
	if e == 0 {
		// Subnormal: value = fr * 2^(Emin - FracBits).
		sig := fr << (63 - f.FracBits)
		lz := uint(bits.LeadingZeros64(sig))
		u.sig = sig << lz
		u.exp = f.Emin() - int(lz)
	} else {
		u.sig = (fr | 1<<f.FracBits) << (63 - f.FracBits)
		u.exp = int(e) - f.Bias()
	}
	return u
}

// pack assembles an encoding from sign, biased exponent field, and
// fraction field, without any range checks.
func (f Format) pack(sign bool, biasedExp uint64, frac uint64) uint64 {
	x := biasedExp<<f.FracBits | frac
	if sign {
		x |= f.signMask()
	}
	return x
}

// propagateNaN implements the package's NaN propagation rule for two
// operands: invalid is raised if either operand is a signaling NaN, and
// the result is the first NaN operand, quieted (as x86 SSE does). At
// least one operand must be a NaN.
func (f Format) propagateNaN(e *Env, a, b uint64) uint64 {
	aNaN, bNaN := f.IsNaN(a), f.IsNaN(b)
	if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
		e.raise(FlagInvalid)
	}
	switch {
	case aNaN:
		return f.quiet(a)
	case bNaN:
		return f.quiet(b)
	}
	// Unreachable when the contract is honored; return the default NaN.
	return f.QNaN()
}

// quiet returns the NaN x with its quiet bit set.
func (f Format) quiet(x uint64) uint64 { return x | f.quietBit() }

// shiftRightJam shifts x right by n, ORing any shifted-out bits into the
// least significant bit of the result ("jamming"). For n >= 64 the result
// is 0 or 1 depending on whether x was nonzero.
func shiftRightJam(x uint64, n uint) uint64 {
	if n == 0 {
		return x
	}
	if n >= 64 {
		if x != 0 {
			return 1
		}
		return 0
	}
	r := x >> n
	if x<<(64-n) != 0 {
		r |= 1
	}
	return r
}
