package ieee754

// Add returns a + b rounded per the environment.
func (f Format) Add(e *Env, a, b uint64) uint64 {
	e.begin()
	r := f.addSub(e, a, b, false)
	return e.finish(r)
}

// Sub returns a - b rounded per the environment.
func (f Format) Sub(e *Env, a, b uint64) uint64 {
	e.begin()
	r := f.addSub(e, a, b, true)
	return e.finish(r)
}

// addSub implements both addition and subtraction; negate flips the sign
// of b.
func (f Format) addSub(e *Env, a, b uint64, negate bool) uint64 {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.propagateNaN(e, a, b)
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	sa := f.SignBit(a)
	sb := f.SignBit(b) != negate

	aInf, bInf := f.IsInf(a, 0), f.IsInf(b, 0)
	switch {
	case aInf && bInf:
		if sa != sb {
			// inf + (-inf): invalid, default NaN.
			e.raise(FlagInvalid)
			return f.QNaN()
		}
		return f.Inf(sa)
	case aInf:
		return f.Inf(sa)
	case bInf:
		return f.Inf(sb)
	}

	aZero, bZero := f.IsZero(a), f.IsZero(b)
	switch {
	case aZero && bZero:
		if sa == sb {
			return f.Zero(sa)
		}
		// Opposite-signed zeros sum to +0 except toward-negative.
		return f.Zero(e.Rounding == TowardNegative)
	case aZero:
		return f.withSign(b, sb)
	case bZero:
		return a
	}

	ua := f.unpackFinite(a)
	ub := f.unpackFinite(b)
	ua.sign = sa
	ub.sign = sb
	if ua.sign == ub.sign {
		return f.addMags(e, ua, ub)
	}
	return f.subMags(e, ua, ub)
}

// withSign returns the encoding x with sign forced to s (used to apply a
// Sub negation to the b operand).
func (f Format) withSign(x uint64, s bool) uint64 {
	x &^= f.signMask()
	if s {
		x |= f.signMask()
	}
	return x
}

// addMags adds two same-signed magnitudes.
func (f Format) addMags(e *Env, a, b unpacked) uint64 {
	if a.exp < b.exp || (a.exp == b.exp && a.sig < b.sig) {
		a, b = b, a
	}
	d := uint(a.exp - b.exp)
	sigB := shiftRightJam(b.sig, d)
	sum := a.sig + sigB // may carry out of 64 bits
	exp := a.exp
	if sum < a.sig {
		// Carry out: shift right one with jam, raise exponent.
		sum = sum>>1 | sum&1 | 1<<63
		exp++
	}
	return f.roundPack(e, a.sign, exp, sum, false)
}

// subMags subtracts two opposite-signed magnitudes (computes
// sign(a) * (|a| - |b|)). It works in 128 bits so that sticky-bit
// handling is exact even under heavy alignment shifts.
func (f Format) subMags(e *Env, a, b unpacked) uint64 {
	if a.exp < b.exp || (a.exp == b.exp && a.sig < b.sig) {
		a, b = b, a
		a.sign = !b.sign
	}
	if a.exp == b.exp && a.sig == b.sig {
		// Exact cancellation: +0, except -0 when rounding toward
		// negative infinity.
		return f.Zero(e.Rounding == TowardNegative)
	}
	d := uint(a.exp - b.exp)
	av := uint128{a.sig, 0}
	bv := uint128{b.sig, 0}
	sticky := false
	if d >= 128 {
		// b is far below a's 128-bit window: subtracting it turns
		// into "a minus epsilon".
		bv = uint128{}
		if b.sig != 0 {
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
		// The true subtrahend was strictly larger than the shifted
		// one, so the true difference lies strictly between diff-1
		// and diff. Represent it as (diff-1) + sticky.
		diff = diff.sub(uint128{0, 1})
	}
	return f.roundPack128(e, a.sign, a.exp, diff, sticky)
}
