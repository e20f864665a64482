package ieee754

import "math/bits"

// div64x63 computes floor(sigA * 2^63 / sigB) with remainder, for
// bit-63-normalized significands (the core of Div).
func div64x63(sigA, sigB uint64) (q, rem uint64) {
	return bits.Div64(sigA>>1, sigA<<63, sigB)
}

// formatOf operations (IEEE 754-2008 §5.4): take operands in format f
// but deliver the result in format dst with a SINGLE rounding from the
// exact value. This differs from computing in f and then converting —
// that path rounds twice and can misround (the double-rounding hazard
// that makes x87 extended-precision arithmetic notorious).
//
// The implementations reuse the exact intermediate forms of the normal
// operations and simply round-and-pack into dst.

// AddTo returns a + b (operands in f) rounded once into dst.
func (f Format) AddTo(e *Env, dst Format, a, b uint64) uint64 {
	e.begin()
	r := f.addSubTo(e, dst, a, b, false)
	return e.finish(r)
}

// SubTo returns a - b (operands in f) rounded once into dst.
func (f Format) SubTo(e *Env, dst Format, a, b uint64) uint64 {
	e.begin()
	r := f.addSubTo(e, dst, a, b, true)
	return e.finish(r)
}

func (f Format) addSubTo(e *Env, dst Format, a, b uint64, negate bool) uint64 {
	if f.IsNaN(a) || f.IsNaN(b) {
		// Propagate through dst's canonical quiet NaN (payload
		// conversion as in Convert).
		if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
			e.raise(FlagInvalid)
		}
		return dst.QNaN()
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	sa := f.SignBit(a)
	sb := f.SignBit(b) != negate

	aInf, bInf := f.IsInf(a, 0), f.IsInf(b, 0)
	switch {
	case aInf && bInf:
		if sa != sb {
			e.raise(FlagInvalid)
			return dst.QNaN()
		}
		return dst.Inf(sa)
	case aInf:
		return dst.Inf(sa)
	case bInf:
		return dst.Inf(sb)
	}
	aZero, bZero := f.IsZero(a), f.IsZero(b)
	switch {
	case aZero && bZero:
		if sa == sb {
			return dst.Zero(sa)
		}
		return dst.Zero(e.Rounding == TowardNegative)
	case aZero:
		return f.convertFiniteTo(e, dst, f.withSign(b, sb))
	case bZero:
		return f.convertFiniteTo(e, dst, f.withSign(a, sa))
	}

	ua := f.unpackFinite(f.withSign(a, sa))
	ub := f.unpackFinite(f.withSign(b, sb))
	if ua.sign == ub.sign {
		// Same-magnitude addition: mirror addMags but pack into dst.
		x, y := ua, ub
		if x.exp < y.exp || (x.exp == y.exp && x.sig < y.sig) {
			x, y = y, x
		}
		d := uint(x.exp - y.exp)
		sigB := shiftRightJam(y.sig, d)
		sum := x.sig + sigB
		exp := x.exp
		if sum < x.sig {
			sum = sum>>1 | sum&1 | 1<<63
			exp++
		}
		return dst.roundPack(e, x.sign, exp, sum, false)
	}
	// Opposite signs: mirror subMags.
	x, y := ua, ub
	if x.exp < y.exp || (x.exp == y.exp && x.sig < y.sig) {
		x, y = y, x
		x.sign = !y.sign
	}
	if x.exp == y.exp && x.sig == y.sig {
		return dst.Zero(e.Rounding == TowardNegative)
	}
	d := uint(x.exp - y.exp)
	av := uint128{x.sig, 0}
	bv := uint128{y.sig, 0}
	sticky := false
	if d >= 128 {
		bv = uint128{}
		if y.sig != 0 {
			sticky = true
		}
	} else {
		if bv.shrLoses(d) {
			sticky = true
		}
		bv = bv.shr(d)
	}
	diff := av.sub(bv)
	if sticky {
		diff = diff.sub(uint128{0, 1})
	}
	return dst.roundPack128(e, x.sign, x.exp, diff, sticky)
}

// MulTo returns a * b (operands in f) rounded once into dst.
func (f Format) MulTo(e *Env, dst Format, a, b uint64) uint64 {
	e.begin()
	var r uint64
	switch {
	case f.IsNaN(a) || f.IsNaN(b):
		if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
			e.raise(FlagInvalid)
		}
		r = dst.QNaN()
	default:
		a2, b2 := e.daz(f, a), e.daz(f, b)
		sign := f.SignBit(a2) != f.SignBit(b2)
		aInf, bInf := f.IsInf(a2, 0), f.IsInf(b2, 0)
		aZero, bZero := f.IsZero(a2), f.IsZero(b2)
		switch {
		case (aInf && bZero) || (bInf && aZero):
			e.raise(FlagInvalid)
			r = dst.QNaN()
		case aInf || bInf:
			r = dst.Inf(sign)
		case aZero || bZero:
			r = dst.Zero(sign)
		default:
			ua, ub := f.unpackFinite(a2), f.unpackFinite(b2)
			p := mul64(ua.sig, ub.sig)
			exp := ua.exp + ub.exp
			if p.hi&(1<<63) != 0 {
				exp++
			} else {
				p = p.shl(1)
			}
			r = dst.roundPack128(e, sign, exp, p, false)
		}
	}
	return e.finish(r)
}

// DivTo returns a / b (operands in f) rounded once into dst.
func (f Format) DivTo(e *Env, dst Format, a, b uint64) uint64 {
	e.begin()
	var r uint64
	switch {
	case f.IsNaN(a) || f.IsNaN(b):
		if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
			e.raise(FlagInvalid)
		}
		r = dst.QNaN()
	default:
		a2, b2 := e.daz(f, a), e.daz(f, b)
		sign := f.SignBit(a2) != f.SignBit(b2)
		aInf, bInf := f.IsInf(a2, 0), f.IsInf(b2, 0)
		aZero, bZero := f.IsZero(a2), f.IsZero(b2)
		switch {
		case (aInf && bInf) || (aZero && bZero):
			e.raise(FlagInvalid)
			r = dst.QNaN()
		case aInf:
			r = dst.Inf(sign)
		case bInf:
			r = dst.Zero(sign)
		case bZero:
			e.raise(FlagDivByZero)
			r = dst.Inf(sign)
		case aZero:
			r = dst.Zero(sign)
		default:
			ua, ub := f.unpackFinite(a2), f.unpackFinite(b2)
			q, rem := div64x63(ua.sig, ub.sig)
			sticky := rem != 0
			exp := ua.exp - ub.exp
			if q&(1<<63) == 0 {
				q <<= 1
				exp--
			}
			r = dst.roundPack(e, sign, exp, q, sticky)
		}
	}
	return e.finish(r)
}

// convertFiniteTo converts a finite (possibly zero) value exactly into
// dst with rounding handled by roundPack.
func (f Format) convertFiniteTo(e *Env, dst Format, x uint64) uint64 {
	if f.IsZero(x) {
		return dst.Zero(f.SignBit(x))
	}
	u := f.unpackFinite(x)
	return dst.roundPack(e, u.sign, u.exp, u.sig, false)
}
