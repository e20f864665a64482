package ieee754

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// String renders the encoding x as a decimal string. For the standard
// formats the value is converted exactly to float64 (widening) and
// printed with the shortest representation that round-trips. NaNs render
// with their payload when it is non-canonical.
func (f Format) String(x uint64) string {
	if f.IsNaN(x) {
		kind := "qNaN"
		if f.IsSignalingNaN(x) {
			kind = "sNaN"
		}
		payload := f.frac(x) &^ f.quietBit()
		sign := ""
		if f.SignBit(x) {
			sign = "-"
		}
		if payload != 0 {
			return fmt.Sprintf("%s%s(0x%x)", sign, kind, payload)
		}
		return sign + kind
	}
	v := f.ToFloat64(x)
	if v == 0 && f.SignBit(x) {
		return "-0"
	}
	if math.IsInf(v, 0) {
		if v > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Hex renders the encoding in C99 hexadecimal-significand form
// (e.g. 0x1.8p+1 for 3.0), which is exact for any finite value.
func (f Format) Hex(x uint64) string {
	switch {
	case f.IsNaN(x):
		return f.String(x)
	case f.IsInf(x, 0):
		if f.SignBit(x) {
			return "-Inf"
		}
		return "+Inf"
	case f.IsZero(x):
		if f.SignBit(x) {
			return "-0x0p+0"
		}
		return "0x0p+0"
	}
	u := f.unpackFinite(x)
	sign := ""
	if u.sign {
		sign = "-"
	}
	// sig has MSB at bit 63; express as 1.<frac> * 2^exp.
	frac := u.sig << 1 // drop the implicit bit
	var sb strings.Builder
	for frac != 0 {
		digit := frac >> 60
		sb.WriteByte("0123456789abcdef"[digit])
		frac <<= 4
	}
	mantissa := sb.String()
	if mantissa == "" {
		return fmt.Sprintf("%s0x1p%+d", sign, u.exp)
	}
	return fmt.Sprintf("%s0x1.%sp%+d", sign, mantissa, u.exp)
}
