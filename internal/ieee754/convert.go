package ieee754

import (
	"math"
	"math/bits"
)

// Convert converts x from format f to format g, rounding per the
// environment. Widening conversions between the standard formats are
// exact; narrowing conversions may raise overflow/underflow/inexact.
// NaN payloads are preserved left-aligned, as hardware does; signaling
// NaNs are quieted and raise invalid.
func (f Format) Convert(e *Env, g Format, x uint64) uint64 {
	e.begin()
	r := f.convert(e, g, x)
	return e.finish(r)
}

func (f Format) convert(e *Env, g Format, x uint64) uint64 {
	if f.IsNaN(x) {
		if f.IsSignalingNaN(x) {
			e.raise(FlagInvalid)
		}
		// Preserve the payload left-aligned; always quiet.
		payload := f.frac(x) &^ f.quietBit()
		var np uint64
		if f.FracBits > g.FracBits {
			np = payload >> (f.FracBits - g.FracBits)
		} else {
			np = payload << (g.FracBits - f.FracBits)
		}
		np &= g.fracMask() &^ g.quietBit()
		r := g.pack(f.SignBit(x), g.expMask(), np|g.quietBit())
		return r
	}
	x = e.daz(f, x)
	switch {
	case f.IsInf(x, 0):
		return g.Inf(f.SignBit(x))
	case f.IsZero(x):
		return g.Zero(f.SignBit(x))
	}
	u := f.unpackFinite(x)
	return g.roundPack(e, u.sign, u.exp, u.sig, false)
}

// FromFloat64 converts a Go float64 into format f. For f == Binary64
// this is a re-rounding no-op.
func (f Format) FromFloat64(e *Env, v float64) uint64 {
	return Binary64.Convert(e, f, math.Float64bits(v))
}

// ToFloat64 converts an encoding in format f to a Go float64. For the
// three standard formats this is exact (widening). The conversion is
// flag-free; it exists for display and interop.
func (f Format) ToFloat64(x uint64) float64 {
	if f == Binary64 {
		return math.Float64frombits(x & f.mask())
	}
	var e Env // fresh environment: exact widening raises nothing
	return math.Float64frombits(f.Convert(&e, Binary64, x))
}

// FromInt64 converts a signed integer to format f, rounding if the
// integer has more significant bits than the format's precision.
func (f Format) FromInt64(e *Env, v int64) uint64 {
	e.begin()
	r := f.fromInt64(e, v)
	return e.finish(r)
}

func (f Format) fromInt64(e *Env, v int64) uint64 {
	if v == 0 {
		return f.Zero(false)
	}
	sign := v < 0
	var mag uint64
	if sign {
		mag = uint64(-v) // works for MinInt64 via two's complement
	} else {
		mag = uint64(v)
	}
	lz := uint(bits.LeadingZeros64(mag))
	sig := mag << lz
	exp := 63 - int(lz)
	return f.roundPack(e, sign, exp, sig, false)
}

// FromUint64 converts an unsigned integer to format f.
func (f Format) FromUint64(e *Env, v uint64) uint64 {
	e.begin()
	r := f.fromUint64(e, v)
	return e.finish(r)
}

func (f Format) fromUint64(e *Env, v uint64) uint64 {
	if v == 0 {
		return f.Zero(false)
	}
	lz := uint(bits.LeadingZeros64(v))
	return f.roundPack(e, false, 63-int(lz), v<<lz, false)
}

// ToInt64 converts x to a signed 64-bit integer using the environment's
// rounding mode. NaN and out-of-range values (including infinities)
// raise invalid and return the closest representable extreme, matching
// common hardware saturation behaviour. Inexact is raised when rounding
// discards a fraction.
func (f Format) ToInt64(e *Env, x uint64) int64 {
	e.begin()
	r := f.toInt64(e, x)
	e.commit()
	return r
}

func (f Format) toInt64(e *Env, x uint64) int64 {
	if f.IsNaN(x) {
		e.raise(FlagInvalid)
		return math.MinInt64
	}
	x = e.daz(f, x)
	if f.IsInf(x, 0) {
		e.raise(FlagInvalid)
		if f.SignBit(x) {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	if f.IsZero(x) {
		return 0
	}
	u := f.unpackFinite(x)
	// Value = sig/2^63 * 2^exp. Integer part needs exp+1 bits.
	if u.exp > 62 {
		// Magnitude >= 2^63: only -2^63 exactly fits.
		if u.sign && u.exp == 63 && u.sig == 1<<63 {
			return math.MinInt64
		}
		e.raise(FlagInvalid)
		if u.sign {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	if u.exp < 0 {
		// |x| < 1: rounds to 0, +-1 depending on mode.
		n := f.roundSmallToInt(e, u)
		return n
	}
	shift := uint(63 - u.exp)
	mag := u.sig >> shift
	fracBits := u.sig << (64 - shift)
	if shift == 0 {
		fracBits = 0
	}
	if fracBits != 0 {
		e.raise(FlagInexact)
		if f.roundAwayInt(e, u.sign, fracBits, mag&1 == 1) {
			mag++
		}
	}
	// Saturate if rounding pushed the magnitude out of range.
	if !u.sign && mag > math.MaxInt64 {
		e.raise(FlagInvalid)
		return math.MaxInt64
	}
	if u.sign {
		if mag > 1<<63 {
			e.raise(FlagInvalid)
			return math.MinInt64
		}
		return -int64(mag) // handles mag == 2^63 via wraparound
	}
	return int64(mag)
}

// roundSmallToInt rounds |x| < 1 to 0 or 1 (then signs it).
func (f Format) roundSmallToInt(e *Env, u unpacked) int64 {
	e.raise(FlagInexact)
	// fraction = sig/2^63 * 2^exp with exp < 0; the "half" point is
	// exp == -1 with sig == 2^63.
	var away bool
	half := u.exp == -1 && u.sig == 1<<63
	moreThanHalf := u.exp == -1 && u.sig > 1<<63
	switch e.Rounding {
	case NearestEven:
		away = moreThanHalf // ties go to even 0
	case NearestAway:
		away = moreThanHalf || half
	case TowardZero:
		away = false
	case TowardPositive:
		away = !u.sign
	case TowardNegative:
		away = u.sign
	}
	if !away {
		return 0
	}
	if u.sign {
		return -1
	}
	return 1
}

// roundAwayInt decides whether truncated integer conversion should round
// away from zero, given the discarded fraction bits (left-aligned in a
// uint64) and the parity of the truncated integer.
func (f Format) roundAwayInt(e *Env, sign bool, fracBits uint64, odd bool) bool {
	const half = 1 << 63
	switch e.Rounding {
	case NearestEven:
		return fracBits > half || (fracBits == half && odd)
	case NearestAway:
		return fracBits >= half
	case TowardZero:
		return false
	case TowardPositive:
		return !sign
	case TowardNegative:
		return sign
	}
	return false
}

// RoundToIntegral rounds x to an integral value in the same format using
// the environment's rounding mode, raising inexact when the value
// changes (IEEE roundToIntegralExact).
func (f Format) RoundToIntegral(e *Env, x uint64) uint64 {
	e.begin()
	r := f.roundToIntegral(e, x)
	return e.finish(r)
}

func (f Format) roundToIntegral(e *Env, x uint64) uint64 {
	if f.IsNaN(x) {
		return f.propagateNaN(e, x, x)
	}
	x = e.daz(f, x)
	if f.IsInf(x, 0) || f.IsZero(x) {
		return x
	}
	u := f.unpackFinite(x)
	if u.exp >= int(f.FracBits) {
		return x // already integral: ulp >= 1
	}
	if u.exp < 0 {
		n := f.roundSmallToInt(e, u)
		switch n {
		case 0:
			return f.Zero(u.sign)
		default:
			return f.One(u.sign)
		}
	}
	shift := uint(63 - u.exp)
	ip := u.sig >> shift
	fracBits := u.sig << (64 - shift)
	if fracBits == 0 {
		return x
	}
	e.raise(FlagInexact)
	if f.roundAwayInt(e, u.sign, fracBits, ip&1 == 1) {
		ip++
	}
	if ip == 0 {
		return f.Zero(u.sign)
	}
	lz := uint(bits.LeadingZeros64(ip))
	return f.roundPack(e, u.sign, 63-int(lz), ip<<lz, false)
}
