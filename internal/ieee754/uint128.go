package ieee754

import "math/bits"

// uint128 is an unsigned 128-bit integer used for exact intermediate
// significands in subtraction, FMA, and square root.
type uint128 struct {
	hi, lo uint64
}

// isZero reports whether u == 0.
func (u uint128) isZero() bool { return u.hi == 0 && u.lo == 0 }

// addCarry returns u + v and the carry out of bit 127.
func (u uint128) addCarry(v uint128) (uint128, uint64) {
	lo, c := bits.Add64(u.lo, v.lo, 0)
	hi, c2 := bits.Add64(u.hi, v.hi, c)
	return uint128{hi, lo}, c2
}

// sub returns u - v (two's complement wraparound on underflow).
func (u uint128) sub(v uint128) uint128 {
	lo, b := bits.Sub64(u.lo, v.lo, 0)
	hi, _ := bits.Sub64(u.hi, v.hi, b)
	return uint128{hi, lo}
}

// cmp returns -1, 0, or +1 as u is less than, equal to, or greater
// than v.
func (u uint128) cmp(v uint128) int {
	switch {
	case u.hi < v.hi:
		return -1
	case u.hi > v.hi:
		return 1
	case u.lo < v.lo:
		return -1
	case u.lo > v.lo:
		return 1
	}
	return 0
}

// shl returns u << n for 0 <= n < 128.
func (u uint128) shl(n uint) uint128 {
	switch {
	case n == 0:
		return u
	case n < 64:
		return uint128{u.hi<<n | u.lo>>(64-n), u.lo << n}
	case n < 128:
		return uint128{u.lo << (n - 64), 0}
	}
	return uint128{}
}

// shr returns u >> n for 0 <= n < 128 (no jamming).
func (u uint128) shr(n uint) uint128 {
	switch {
	case n == 0:
		return u
	case n < 64:
		return uint128{u.hi >> n, u.lo>>n | u.hi<<(64-n)}
	case n < 128:
		return uint128{0, u.hi >> (n - 64)}
	}
	return uint128{}
}

// shrJam returns u >> n with all shifted-out bits jammed into the least
// significant bit. For n >= 128 the result is 0 or 1.
func (u uint128) shrJam(n uint) uint128 {
	if n == 0 {
		return u
	}
	if n >= 128 {
		if !u.isZero() {
			return uint128{0, 1}
		}
		return uint128{}
	}
	r := u.shr(n)
	if u.shl(128 - n).isZero() {
		return r
	}
	return uint128{r.hi, r.lo | 1}
}

// shrLoses reports whether u >> n would lose any set bits.
func (u uint128) shrLoses(n uint) bool {
	if n == 0 {
		return false
	}
	if n >= 128 {
		return !u.isZero()
	}
	return !u.shl(128 - n).isZero()
}

// leadingZeros returns the number of leading zero bits in u (128 when
// u == 0).
func (u uint128) leadingZeros() uint {
	if u.hi != 0 {
		return uint(bits.LeadingZeros64(u.hi))
	}
	return 64 + uint(bits.LeadingZeros64(u.lo))
}

// mul64 returns the full 128-bit product x*y.
func mul64(x, y uint64) uint128 {
	hi, lo := bits.Mul64(x, y)
	return uint128{hi, lo}
}

// sqrt128 returns floor(sqrt(u)) and whether the square root was exact.
// It uses the classic restoring (digit-by-digit) method over 64 result
// bits.
func sqrt128(u uint128) (root uint64, exact bool) {
	var rem, acc uint128 // remainder and current root (as 128-bit)
	x := u
	// Process two input bits per iteration, from the top.
	for i := 0; i < 64; i++ {
		// rem = rem<<2 | top two bits of x.
		rem = rem.shl(2)
		rem.lo |= x.hi >> 62
		x = x.shl(2)
		// Trial subtrahend: (acc<<2) | 1.
		trial := acc.shl(2)
		trial.lo |= 1
		acc = acc.shl(1)
		if rem.cmp(trial) >= 0 {
			rem = rem.sub(trial)
			acc.lo |= 1
		}
	}
	return acc.lo, rem.isZero()
}
