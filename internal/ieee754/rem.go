package ieee754

import "math/bits"

// Rem returns the IEEE 754 remainder of a with respect to b:
// r = a - b*n where n is the integer nearest the exact quotient a/b,
// with ties to even. The remainder operation is always exact; a zero
// remainder carries the sign of a.
func (f Format) Rem(e *Env, a, b uint64) uint64 {
	e.begin()
	r := f.rem(e, a, b)
	return e.finish(r)
}

func (f Format) rem(e *Env, a, b uint64) uint64 {
	if f.IsNaN(a) || f.IsNaN(b) {
		return f.propagateNaN(e, a, b)
	}
	a = e.daz(f, a)
	b = e.daz(f, b)
	switch {
	case f.IsInf(a, 0), f.IsZero(b):
		e.raise(FlagInvalid)
		return f.QNaN()
	case f.IsInf(b, 0), f.IsZero(a):
		return a
	}

	ua := f.unpackFinite(a)
	ub := f.unpackFinite(b)
	signA := ua.sign
	d := ua.exp - ub.exp

	// |a|/|b| = (sigA/sigB) * 2^d with sigA/sigB in (1/2, 2).
	if d < -1 {
		// |a/b| < 1/2 strictly: the nearest integer is 0.
		return a
	}
	if d == -1 {
		// |a/b| in (1/4, 1): nearest integer is 0 or 1. It is 1
		// exactly when |a| > |b|/2, i.e. sigA > sigB (a tie keeps
		// the even quotient 0).
		if ua.sig <= ub.sig {
			return a
		}
		// r = sign(a) * (|a| - |b|) = -sign(a) * (2*sigB - sigA) at
		// scale 2^(expA - 63).
		mag := ub.sig - (ua.sig - ub.sig)
		return f.normPackExact(e, !signA, ua.exp, mag)
	}

	// d >= 0: reduce sigA * 2^d modulo sigB in 32-bit chunks,
	// tracking the quotient's parity (all that the tie rule needs).
	r := ua.sig % ub.sig
	qParity := (ua.sig / ub.sig) & 1
	for d > 0 {
		step := uint(32)
		if d < 32 {
			step = uint(d)
		}
		// (r << step) mod sigB via 96-bit division. The running
		// quotient is multiplied by 2^step (becoming even), so only
		// this chunk's low bit contributes to the parity.
		hi := r >> (64 - step)
		lo := r << step
		q, rr := bits.Div64(hi, lo, ub.sig)
		qParity = q & 1
		r = rr
		d -= int(step)
	}

	// |a| = Q*|b| + r*2^(expB-63) with r in [0, sigB) and parity(Q) ==
	// qParity. Nearest-integer selection: bump Q when the residue
	// exceeds half of sigB, or equals half with Q odd.
	moreThanHalf := r > ub.sig-r
	exactlyHalf := r == ub.sig-r
	if moreThanHalf || (exactlyHalf && qParity == 1) {
		mag := ub.sig - r
		return f.normPackExact(e, !signA, ub.exp, mag)
	}
	if r == 0 {
		return f.Zero(signA)
	}
	return f.normPackExact(e, signA, ub.exp, r)
}

// normPackExact packs an exact nonzero fixed-point magnitude
// sig * 2^(exp-63) (sig not necessarily normalized). The value is always
// exactly representable when it arises from the remainder computation.
func (f Format) normPackExact(e *Env, sign bool, exp int, sig uint64) uint64 {
	lz := uint(bits.LeadingZeros64(sig))
	return f.roundPack(e, sign, exp-int(lz), sig<<lz, false)
}
