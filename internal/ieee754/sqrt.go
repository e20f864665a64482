package ieee754

// Sqrt returns the correctly rounded square root of a. The square root
// of a negative (nonzero) number raises invalid; sqrt(-0) is -0 and
// sqrt(+inf) is +inf per the standard.
func (f Format) Sqrt(e *Env, a uint64) uint64 {
	e.begin()
	r := f.sqrt(e, a)
	return e.finish(r)
}

func (f Format) sqrt(e *Env, a uint64) uint64 {
	if f.IsNaN(a) {
		return f.propagateNaN(e, a, a)
	}
	a = e.daz(f, a)
	switch {
	case f.IsZero(a):
		return a // sqrt(±0) = ±0
	case f.SignBit(a):
		e.raise(FlagInvalid)
		return f.QNaN()
	case f.IsInf(a, +1):
		return a
	}

	u := f.unpackFinite(a)
	// Arrange an even exponent: sqrt(sig/2^63 * 2^exp). For even exp,
	// root = sqrt(sig << 63) / 2^63 * 2^(exp/2); for odd exp, fold one
	// factor of two into the radicand: sqrt(sig << 64) / 2^63 *
	// 2^((exp-1)/2).
	var radicand uint128
	exp := u.exp
	if exp&1 == 0 {
		radicand = uint128{u.sig >> 1, u.sig << 63}
	} else {
		radicand = uint128{u.sig, 0}
		exp--
	}
	root, exact := sqrt128(radicand)
	return f.roundPack(e, false, exp/2, root, !exact)
}
