package ieee754

// Mul returns a * b rounded per the environment.
func (f Format) Mul(e *Env, a, b uint64) uint64 {
	e.begin()
	r := f.mul(e, a, b)
	return e.finish(r)
}

func (f Format) mul(e *Env, a, b uint64) uint64 {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.propagateNaN(e, a, b)
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	sign := f.SignBit(a) != f.SignBit(b)

	aInf, bInf := f.IsInf(a, 0), f.IsInf(b, 0)
	aZero, bZero := f.IsZero(a), f.IsZero(b)
	switch {
	case (aInf && bZero) || (bInf && aZero):
		e.raise(FlagInvalid)
		return f.QNaN()
	case aInf || bInf:
		return f.Inf(sign)
	case aZero || bZero:
		return f.Zero(sign)
	}

	ua := f.unpackFinite(a)
	ub := f.unpackFinite(b)
	// Product of two bit-63-normalized significands occupies bits
	// 126..127 of the 128-bit result.
	p := mul64(ua.sig, ub.sig)
	exp := ua.exp + ub.exp
	if p.hi&(1<<63) != 0 {
		exp++ // MSB at 127: value = p/2^127 * 2^(exp+1) convention
	} else {
		p = p.shl(1)
	}
	return f.roundPack128(e, sign, exp, p, false)
}
