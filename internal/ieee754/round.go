package ieee754

// roundPack rounds and packs a finite nonzero intermediate result.
//
// The abstract value is (-1)^sign * (sig / 2^63) * 2^exp, where sig is
// normalized with its most significant bit at bit 63. sticky indicates
// that additional nonzero bits were already discarded below sig.
//
// roundPack handles rounding to the format's precision, overflow
// saturation per the rounding mode, gradual underflow into the subnormal
// range, and the FTZ control. It raises overflow/underflow/inexact (and
// denormal for subnormal results) on e.raised.
//
// Every caller passes a normalized, hence nonzero, significand:
// products, quotients and square roots of normalized significands are
// normalized after at most a one-place shift, a sum of like-signed
// magnitudes is at least the larger one, conversions and roundPack128
// normalize with a leading-zero count, and the subtractions (subMags,
// fmaSubMags) deliver exact cancellation as a zero before
// rounding. They borrow for a sticky residue only when the subtrahend
// was shifted right at least one place, which leaves a difference of at
// least 2^63 in their 128-bit window. A value that lies wholly below the
// subnormal grid is shifted out in the tiny branch and rounds there as a
// pure sticky residue.
func (f Format) roundPack(e *Env, sign bool, exp int, sig uint64, sticky bool) uint64 {
	p := f.Precision() // kept significand bits, including implicit bit
	drop := 64 - p     // bits below the kept significand

	tiny := exp < f.Emin()
	if tiny {
		// Denormalize: shift right so the value lines up with the
		// subnormal grid at exponent Emin.
		shift := uint64(f.Emin() - exp)
		if shift >= 64 {
			if sig != 0 {
				sticky = true
			}
			sig = 0
		} else {
			if sig<<(64-shift) != 0 {
				sticky = true
			}
			sig >>= shift
		}
		exp = f.Emin()
	}

	kept := sig >> drop
	roundBit := sig>>(drop-1)&1 == 1
	lowRest := sig<<(64-(drop-1)) != 0 // bits below the round bit
	if drop == 1 {
		lowRest = false
	}
	stickyAll := sticky || lowRest
	inexact := roundBit || stickyAll

	up := false
	switch e.Rounding {
	case NearestEven:
		up = roundBit && (stickyAll || kept&1 == 1)
	case NearestAway:
		up = roundBit
	case TowardZero:
		up = false
	case TowardPositive:
		up = !sign && inexact
	case TowardNegative:
		up = sign && inexact
	}
	if up {
		kept++
		if kept == 1<<p {
			// Carry out of the significand: renormalize. (Cannot
			// happen in the tiny case, where kept < 2^(p-1).)
			kept >>= 1
			exp++
		}
	}

	if tiny {
		// Subnormal (or zero) result at exponent Emin, implicit bit
		// clear, except when rounding carried up into the smallest
		// normal.
		if inexact {
			e.raise(FlagUnderflow | FlagInexact)
		}
		if kept == 0 {
			return f.Zero(sign)
		}
		if kept >= 1<<(p-1) {
			// Rounded up out of the subnormal range: deliver the
			// smallest normal. (Underflow is still raised above:
			// this package detects tininess before rounding.)
			return f.pack(sign, 1, 0)
		}
		e.raise(FlagDenormal)
		if e.FTZ {
			// Flush-to-zero: non-standard replacement of subnormal
			// results by zero. x86 raises underflow when flushing.
			e.raise(FlagUnderflow | FlagInexact)
			return f.Zero(sign)
		}
		return f.pack(sign, 0, kept)
	}

	if exp > f.Emax() {
		return f.overflow(e, sign)
	}
	if inexact {
		e.raise(FlagInexact)
	}
	biased := uint64(exp + f.Bias())
	return f.pack(sign, biased, kept&f.fracMask())
}

// overflow delivers the saturated result mandated by the rounding mode
// and raises overflow|inexact. Round-to-nearest modes deliver infinity;
// directed modes deliver either infinity or the largest finite value.
func (f Format) overflow(e *Env, sign bool) uint64 {
	e.raise(FlagOverflow | FlagInexact)
	switch e.Rounding {
	case TowardZero:
		return f.MaxFinite(sign)
	case TowardPositive:
		if sign {
			return f.MaxFinite(true)
		}
		return f.Inf(false)
	case TowardNegative:
		if sign {
			return f.Inf(true)
		}
		return f.MaxFinite(false)
	}
	return f.Inf(sign)
}

// roundPack128 rounds and packs from a 128-bit intermediate significand
// normalized with its most significant bit at bit 127; the abstract value
// is (-1)^sign * (x / 2^127) * 2^exp. x must be nonzero (see
// roundPack).
func (f Format) roundPack128(e *Env, sign bool, exp int, x uint128, sticky bool) uint64 {
	if lz := x.leadingZeros(); lz > 0 {
		x = x.shl(lz)
		exp -= int(lz)
	}
	sig := x.hi
	if x.lo != 0 {
		sticky = true
	}
	return f.roundPack(e, sign, exp, sig, sticky)
}
