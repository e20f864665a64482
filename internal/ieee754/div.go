package ieee754

import "math/bits"

// Div returns a / b rounded per the environment. Division of a finite
// nonzero value by zero raises divide-by-zero and returns a signed
// infinity; 0/0 and inf/inf raise invalid and return the default NaN.
func (f Format) Div(e *Env, a, b uint64) uint64 {
	e.begin()
	r := f.div(e, a, b)
	return e.finish(r)
}

func (f Format) div(e *Env, a, b uint64) uint64 {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.propagateNaN(e, a, b)
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	sign := f.SignBit(a) != f.SignBit(b)

	aInf, bInf := f.IsInf(a, 0), f.IsInf(b, 0)
	aZero, bZero := f.IsZero(a), f.IsZero(b)
	switch {
	case aInf && bInf, aZero && bZero:
		e.raise(FlagInvalid)
		return f.QNaN()
	case aInf:
		return f.Inf(sign)
	case bInf:
		return f.Zero(sign)
	case bZero:
		e.raise(FlagDivByZero)
		return f.Inf(sign)
	case aZero:
		return f.Zero(sign)
	}

	ua := f.unpackFinite(a)
	ub := f.unpackFinite(b)
	// Compute q = floor(sigA * 2^63 / sigB). Both significands are in
	// [2^63, 2^64), so q is in (2^62, 2^64). bits.Div64 requires
	// hi < divisor, which holds since sigA/2 < 2^63 <= sigB.
	q, rem := div64x63(ua.sig, ub.sig)
	sticky := rem != 0
	exp := ua.exp - ub.exp
	if q&(1<<63) == 0 {
		q <<= 1
		exp--
	}
	return f.roundPack(e, sign, exp, q, sticky)
}

// div64x63 computes floor(sigA * 2^63 / sigB) with remainder, for
// bit-63-normalized significands (the core of Div).
func div64x63(sigA, sigB uint64) (q, rem uint64) {
	return bits.Div64(sigA>>1, sigA<<63, sigB)
}
