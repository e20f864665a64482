package ieee754

import "math"

// Convert converts x from format f to format g, rounding per the
// environment. Widening conversions between the standard formats are
// exact; narrowing conversions may raise overflow/underflow/inexact.
// NaN payloads are preserved left-aligned, as hardware does; signaling
// NaNs are quieted and raise invalid.
func (f Format) Convert(e *Env, g Format, x uint64) uint64 {
	e.begin()
	r := f.convert(e, g, x)
	return e.finish(r)
}

func (f Format) convert(e *Env, g Format, x uint64) uint64 {
	if f.IsNaN(x) {
		if f.IsSignalingNaN(x) {
			e.raise(FlagInvalid)
		}
		// Preserve the payload left-aligned; always quiet.
		payload := f.frac(x) &^ f.quietBit()
		var np uint64
		if f.FracBits > g.FracBits {
			np = payload >> (f.FracBits - g.FracBits)
		} else {
			np = payload << (g.FracBits - f.FracBits)
		}
		np &= g.fracMask() &^ g.quietBit()
		r := g.pack(f.SignBit(x), g.expMask(), np|g.quietBit())
		return r
	}
	x = e.daz(f, x)
	switch {
	case f.IsInf(x, 0):
		return g.Inf(f.SignBit(x))
	case f.IsZero(x):
		return g.Zero(f.SignBit(x))
	}
	u := f.unpackFinite(x)
	return g.roundPack(e, u.sign, u.exp, u.sig, false)
}

// FromFloat64 converts a Go float64 into format f. For f == Binary64
// this is a re-rounding no-op.
func (f Format) FromFloat64(e *Env, v float64) uint64 {
	return Binary64.Convert(e, f, math.Float64bits(v))
}

// ToFloat64 converts an encoding in format f to a Go float64. For the
// three standard formats this is exact (widening). The conversion is
// flag-free; it exists for display and interop.
func (f Format) ToFloat64(x uint64) float64 {
	if f == Binary64 {
		return math.Float64frombits(x & f.mask())
	}
	var e Env // fresh environment: exact widening raises nothing
	return math.Float64frombits(f.Convert(&e, Binary64, x))
}
