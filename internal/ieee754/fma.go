package ieee754

// FMA returns a*b + c with a single rounding (fused multiply-add, the
// "MADD" operation of the paper's optimization quiz). Fused multiply-add
// was added to IEEE 754 in the 2008 revision; it was not part of the
// original 1985 standard and can produce different results than a
// multiplication followed by a separate addition.
//
// Invalid is raised for 0*inf (even when c is a quiet NaN, matching
// Berkeley SoftFloat) and for inf*x + (-inf) cancellation.
func (f Format) FMA(e *Env, a, b, c uint64) uint64 {
	e.begin()
	r := f.fma(e, a, b, c)
	return e.finish(r)
}

func (f Format) fma(e *Env, a, b, c uint64) uint64 {
	aNaN, bNaN, cNaN := f.IsNaN(a), f.IsNaN(b), f.IsNaN(c)
	if aNaN || bNaN || cNaN {
		if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) || f.IsSignalingNaN(c) {
			e.raise(FlagInvalid)
		}
		// An invalid product (0 * inf) outranks propagation of a
		// quiet NaN from c.
		aInf0, bInf0 := f.IsInf(a, 0), f.IsInf(b, 0)
		aZero0, bZero0 := f.IsZero(a), f.IsZero(b)
		if !aNaN && !bNaN && ((aInf0 && bZero0) || (bInf0 && aZero0)) {
			e.raise(FlagInvalid)
			return f.QNaN()
		}
		switch {
		case aNaN:
			return f.quiet(a)
		case bNaN:
			return f.quiet(b)
		default:
			return f.quiet(c)
		}
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	c = e.daz(f, c)

	signP := f.SignBit(a) != f.SignBit(b)
	aInf, bInf, cInf := f.IsInf(a, 0), f.IsInf(b, 0), f.IsInf(c, 0)
	aZero, bZero, cZero := f.IsZero(a), f.IsZero(b), f.IsZero(c)

	if (aInf && bZero) || (bInf && aZero) {
		e.raise(FlagInvalid)
		return f.QNaN()
	}
	if aInf || bInf {
		// Product is a signed infinity.
		if cInf && f.SignBit(c) != signP {
			e.raise(FlagInvalid)
			return f.QNaN()
		}
		return f.Inf(signP)
	}
	if cInf {
		return c
	}
	if aZero || bZero {
		// Product is a signed zero; fall back to addition semantics
		// to get the zero-sign rules right.
		return f.addSub(e, f.Zero(signP), c, false)
	}
	if cZero {
		// Exact product plus zero: the product rounds on its own,
		// except (+0) + (-0) style interactions don't arise since
		// the product is nonzero.
		ua, ub := f.unpackFinite(a), f.unpackFinite(b)
		p := mul64(ua.sig, ub.sig)
		exp := ua.exp + ub.exp
		if p.hi&(1<<63) != 0 {
			exp++
		} else {
			p = p.shl(1)
		}
		return f.roundPack128(e, signP, exp, p, false)
	}

	ua, ub, uc := f.unpackFinite(a), f.unpackFinite(b), f.unpackFinite(c)

	// Exact 128-bit product, normalized with MSB at bit 127; abstract
	// value = prod/2^127 * 2^expP.
	prod := mul64(ua.sig, ub.sig)
	expP := ua.exp + ub.exp
	if prod.hi&(1<<63) != 0 {
		expP++
	} else {
		prod = prod.shl(1)
	}
	signC := f.SignBit(c)
	// Addend in the same fixed-point convention: value =
	// cv/2^127 * 2^expC.
	cv := uint128{uc.sig, 0}
	expC := uc.exp

	if signP == signC {
		return f.fmaAddMags(e, signP, expP, prod, expC, cv)
	}
	return f.fmaSubMags(e, signP, expP, prod, expC, cv)
}

// fmaAddMags adds two same-signed 128-bit magnitudes in the
// value = x/2^127 * 2^exp convention.
func (f Format) fmaAddMags(e *Env, sign bool, expA int, av uint128, expB int, bv uint128) uint64 {
	if expA < expB || (expA == expB && av.cmp(bv) < 0) {
		expA, expB = expB, expA
		av, bv = bv, av
	}
	d := uint(expA - expB)
	bv = bv.shrJam(d)
	sum, carry := av.addCarry(bv)
	exp := expA
	if carry != 0 {
		lost := sum.lo&1 != 0
		sum = sum.shr(1)
		sum.hi |= 1 << 63
		if lost {
			sum.lo |= 1
		}
		exp++
	}
	return f.roundPack128(e, sign, exp, sum, false)
}

// fmaSubMags computes sign(a)*(|a| - |b|) over 128-bit magnitudes in the
// value = x/2^127 * 2^exp convention.
func (f Format) fmaSubMags(e *Env, signA bool, expA int, av uint128, expB int, bv uint128) uint64 {
	if expA < expB || (expA == expB && av.cmp(bv) < 0) {
		expA, expB = expB, expA
		av, bv = bv, av
		signA = !signA
	}
	if expA == expB && av.cmp(bv) == 0 {
		return f.Zero(e.Rounding == TowardNegative)
	}
	d := uint(expA - expB)
	sticky := bv.shrLoses(d)
	bv = bv.shr(d)
	diff := av.sub(bv)
	if sticky {
		// True subtrahend exceeded the truncated one: borrow one ulp
		// and keep the residue as sticky.
		diff = diff.sub(uint128{0, 1})
	}
	return f.roundPack128(e, signA, expA, diff, sticky)
}
