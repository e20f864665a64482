package ieee754

import (
	"math"
	"math/rand"
	"testing"
)

// specials64 is a directed corpus of interesting binary64 bit patterns.
func specials64() []uint64 {
	f := Binary64
	vals := []float64{
		0, 1, -1, 2, -2, 0.5, -0.5, 1.5, 0.1, -0.1, 3, 10, 1e10, -1e10,
		1e-300, -1e-300, 1e300, -1e300, math.Pi, -math.Pi, math.E,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), 1<<53 + 0, 1 << 52, 1<<53 - 1, -(1 << 52),
		math.Float64frombits(0x0010000000000000),     // min normal
		math.Float64frombits(0x000fffffffffffff),     // max subnormal
		math.Float64frombits(0x0000000000000001),     // min subnormal
		math.Float64frombits(0x7fefffffffffffff - 1), // near max
		math.Copysign(0, -1),                         // -0
	}
	var out []uint64
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	out = append(out,
		f.QNaN(), f.SNaN(), f.QNaN()|f.signMask(),
		f.MaxFinite(false), f.MaxFinite(true),
		f.MinNormal(), f.MinSubnormal(),
	)
	return out
}

// randBits64 generates bit patterns that cover all regimes: uniform
// random bits hit NaN/huge exponents often; biased patterns hit normals
// near 1.0 and subnormals.
func randBits64(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0: // uniform over all encodings
		return rng.Uint64()
	case 1: // moderate exponent range around 0
		exp := uint64(1023 + rng.Intn(80) - 40)
		return rng.Uint64()&0x800fffffffffffff | exp<<52
	case 2: // subnormal
		return rng.Uint64() & 0x800fffffffffffff
	case 3: // small integers scaled
		return math.Float64bits(float64(rng.Intn(2048)-1024) * math.Ldexp(1, rng.Intn(8)-4))
	default: // near overflow/underflow boundary exponents
		exp := uint64(rng.Intn(60))
		if rng.Intn(2) == 0 {
			exp = 2046 - uint64(rng.Intn(60))
		}
		return rng.Uint64()&0x800fffffffffffff | exp<<52
	}
}

// sameFloat64 compares results treating all NaNs as equal and
// distinguishing zero signs.
func sameFloat64(a, b uint64) bool {
	if Binary64.IsNaN(a) && Binary64.IsNaN(b) {
		return true
	}
	return a == b
}

func sameFloat32(a, b uint64) bool {
	if Binary32.IsNaN(a) && Binary32.IsNaN(b) {
		return true
	}
	return a&0xffffffff == b&0xffffffff
}

func b64(v float64) uint64 { return math.Float64bits(v) }
func f64(b uint64) float64 { return math.Float64frombits(b) }
func b32(v float32) uint64 { return uint64(math.Float32bits(v)) }
func f32(b uint64) float32 { return math.Float32frombits(uint32(b)) }
func newRng(t *testing.T) *rand.Rand {
	t.Helper()
	return rand.New(rand.NewSource(0x5eed))
}

// The helpers below build test inputs and expectations; the package
// itself needs none of them.

// SNaN returns a canonical signaling NaN (payload 1).
func (f Format) SNaN() uint64 {
	return f.expMask()<<f.FracBits | 1
}

// IsFinite reports whether x encodes a finite number (zero, subnormal or
// normal).
func (f Format) IsFinite(x uint64) bool { return f.biasedExp(x) != f.expMask() }

// Abs returns x with its sign bit cleared. Quiet, raises no flags.
func (f Format) Abs(x uint64) uint64 { return x &^ f.signMask() }

// CopySign returns x with the sign of y.
func (f Format) CopySign(x, y uint64) uint64 {
	return x&^f.signMask() | y&f.signMask()
}

// NextUp returns the least value that compares greater than x
// (IEEE 754-2008 nextUp). nextUp(-0) = nextUp(+0) = minSubnormal,
// nextUp(+inf) = +inf, nextUp(NaN) = quieted NaN.
func (f Format) NextUp(x uint64) uint64 {
	switch {
	case f.IsNaN(x):
		return f.quiet(x)
	case f.IsInf(x, +1):
		return x
	case f.IsZero(x):
		return f.MinSubnormal()
	case f.SignBit(x):
		// Negative values move toward zero: decrement magnitude.
		return f.pack(true, 0, 0) | (x&^f.signMask() - 1)
	default:
		return x + 1 // encoding order matches value order for positives
	}
}

// classOf names the IEEE 754 class of x for the census tests: "sNaN",
// "qNaN", or a sign followed by "inf", "zero", "subnormal" or "normal".
func classOf(f Format, x uint64) string {
	switch {
	case f.IsSignalingNaN(x):
		return "sNaN"
	case f.IsNaN(x):
		return "qNaN"
	}
	sign := "+"
	if f.SignBit(x) {
		sign = "-"
	}
	switch {
	case f.IsInf(x, 0):
		return sign + "inf"
	case f.IsZero(x):
		return sign + "zero"
	case f.IsSubnormal(x):
		return sign + "subnormal"
	}
	return sign + "normal"
}
