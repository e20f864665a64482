package ieee754

// Ordering is the result of a floating point comparison. Unlike integer
// comparison, floating point comparison is a four-way relation: two
// values are either less, equal, greater, or unordered (at least one is
// a NaN).
type Ordering int8

const (
	Less      Ordering = -1
	Equal     Ordering = 0
	Greater   Ordering = 1
	Unordered Ordering = 2
)

// String returns the relation name.
func (o Ordering) String() string {
	switch o {
	case Less:
		return "less"
	case Equal:
		return "equal"
	case Greater:
		return "greater"
	case Unordered:
		return "unordered"
	}
	return "invalidOrdering"
}

// CompareQuiet compares a and b without raising invalid for quiet NaNs
// (IEEE compareQuiet*). Signaling NaNs still raise invalid. Zeros of
// either sign compare equal.
func (f Format) CompareQuiet(e *Env, a, b uint64) Ordering {
	e.begin()
	if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
		e.raise(FlagInvalid)
	}
	o := f.compare(a, b)
	e.commit()
	return o
}

// CompareSignaling compares a and b, raising invalid if either operand
// is any NaN (IEEE compareSignaling*, the semantics of <, <=, >, >= in
// C-family languages).
func (f Format) CompareSignaling(e *Env, a, b uint64) Ordering {
	e.begin()
	if f.IsNaN(a) || f.IsNaN(b) {
		e.raise(FlagInvalid)
	}
	o := f.compare(a, b)
	e.commit()
	return o
}

// compare is the flag-free comparison core.
func (f Format) compare(a, b uint64) Ordering {
	if f.IsNaN(a) || f.IsNaN(b) {
		return Unordered
	}
	aZero, bZero := f.IsZero(a), f.IsZero(b)
	if aZero && bZero {
		return Equal // +0 == -0
	}
	ka, kb := f.orderKey(a), f.orderKey(b)
	switch {
	case ka < kb:
		return Less
	case ka > kb:
		return Greater
	}
	return Equal
}

// orderKey maps a non-NaN encoding to a signed integer whose natural
// order matches the floating point order (the classic sign-magnitude to
// two's-complement trick).
func (f Format) orderKey(x uint64) int64 {
	m := x & f.mask()
	if f.SignBit(x) {
		return -int64(m &^ f.signMask())
	}
	return int64(m)
}

// Eq reports a == b with IEEE semantics: NaN compares unequal to
// everything including itself, and +0 equals -0. Quiet NaNs do not raise
// invalid (this is C's ==).
func (f Format) Eq(e *Env, a, b uint64) bool {
	return f.CompareQuiet(e, a, b) == Equal
}

// Ne reports a != b with IEEE semantics (true whenever the operands are
// unordered).
func (f Format) Ne(e *Env, a, b uint64) bool {
	return f.CompareQuiet(e, a, b) != Equal
}

// Lt reports a < b, raising invalid on any NaN operand (C's <).
func (f Format) Lt(e *Env, a, b uint64) bool {
	return f.CompareSignaling(e, a, b) == Less
}

// Le reports a <= b, raising invalid on any NaN operand.
func (f Format) Le(e *Env, a, b uint64) bool {
	o := f.CompareSignaling(e, a, b)
	return o == Less || o == Equal
}

// Gt reports a > b, raising invalid on any NaN operand.
func (f Format) Gt(e *Env, a, b uint64) bool {
	return f.CompareSignaling(e, a, b) == Greater
}

// Ge reports a >= b, raising invalid on any NaN operand.
func (f Format) Ge(e *Env, a, b uint64) bool {
	o := f.CompareSignaling(e, a, b)
	return o == Greater || o == Equal
}

// TotalOrder implements the IEEE 754-2008 totalOrder predicate: a total
// ordering over all encodings in which -NaN < -Inf < finite < +Inf <
// +NaN, -0 < +0, and NaNs order by payload. It raises no flags.
func (f Format) TotalOrder(a, b uint64) bool {
	ka := f.totalKey(a)
	kb := f.totalKey(b)
	return ka <= kb
}

// totalKey maps any encoding (including NaNs) to a monotone signed key.
// Negative encodings are offset by one so that -0 orders strictly below
// +0, as totalOrder requires.
func (f Format) totalKey(x uint64) int64 {
	m := x & f.mask()
	if f.SignBit(x) {
		return -int64(m&^f.signMask()) - 1
	}
	return int64(m)
}

// MinNum returns the smaller of a and b, preferring a number over a
// quiet NaN (IEEE 754-2008 minNum). If both are NaN the default NaN is
// returned. Signaling NaNs raise invalid.
func (f Format) MinNum(e *Env, a, b uint64) uint64 {
	return f.minMax(e, a, b, true)
}

// MaxNum returns the larger of a and b, preferring a number over a quiet
// NaN (IEEE 754-2008 maxNum).
func (f Format) MaxNum(e *Env, a, b uint64) uint64 {
	return f.minMax(e, a, b, false)
}

func (f Format) minMax(e *Env, a, b uint64, min bool) uint64 {
	e.begin()
	var r uint64
	aNaN, bNaN := f.IsNaN(a), f.IsNaN(b)
	if f.IsSignalingNaN(a) || f.IsSignalingNaN(b) {
		e.raise(FlagInvalid)
	}
	switch {
	case aNaN && bNaN:
		r = f.QNaN()
	case aNaN:
		r = b
	case bNaN:
		r = a
	default:
		o := f.compare(a, b)
		// Order zeros by sign: minNum(-0,+0) = -0, maxNum = +0.
		if o == Equal && f.IsZero(a) && f.IsZero(b) && f.SignBit(a) != f.SignBit(b) {
			if min == f.SignBit(a) {
				r = a
			} else {
				r = b
			}
		} else if (o == Less) == min || o == Equal {
			r = a
		} else {
			r = b
		}
	}
	return e.finish(r)
}
