package ieee754

// Cross-validation of the parametric softfloat on a non-standard tiny
// format (an FP8 E4M3-like minifloat, 8 bits total) — exhaustively over
// ALL operand pairs — against exact rational arithmetic: each operation
// is recomputed exactly over the integers and rounded by an independent
// reference rounder. This exercises the softfloat's rounding/underflow/
// overflow paths far more densely than the standard formats can.

import (
	"math"
	"testing"
)

// fp8 is an IEEE-style E4M3 format (unlike the OCP FP8 E4M3 variant it
// keeps infinities and standard NaN encodings, since it follows the
// IEEE 754 encoding scheme parametrically).
var fp8 = Format{ExpBits: 4, FracBits: 3, Name: "fp8e4m3"}

// refRound rounds an exact real value represented as sign * num/den
// (num, den positive integers, den a power of two) to fp8 with
// round-to-nearest-even, mirroring the format's overflow-to-infinity
// and gradual-underflow behaviour. It is deliberately written in a
// completely different style from the production code (search over all
// encodings) so a shared bug is implausible.
func refRoundFP8(v float64) uint64 {
	if math.IsNaN(v) {
		return fp8.QNaN()
	}
	neg := math.Signbit(v)
	av := math.Abs(v)
	if math.IsInf(v, 0) {
		return fp8.Inf(neg)
	}
	// Enumerate all finite magnitudes (128 of them) and pick nearest,
	// ties to even encoding (even significand = even encoding here
	// because the fraction is the low bits).
	bestBits := uint64(0)
	bestDiff := math.Inf(1)
	for bits := uint64(0); bits < 1<<7; bits++ { // sign 0, all exp/frac
		if !fp8.IsFinite(bits) {
			continue
		}
		m := fp8.ToFloat64(bits)
		d := math.Abs(av - m)
		switch {
		case d < bestDiff:
			bestDiff, bestBits = d, bits
		case d == bestDiff && bits&1 == 0 && bestBits&1 == 1:
			bestBits = bits
		}
	}
	// Overflow rule: if the value is at least halfway past the max
	// finite magnitude, round to infinity.
	maxF := fp8.ToFloat64(fp8.MaxFinite(false))
	// The "next" representable above max would be max * (1 + 2^-p)...
	// IEEE overflow threshold is max + 1/2 ulp = max * (1 + 2^-(p)).
	ulp := math.Ldexp(1, fp8.Emax()-int(fp8.FracBits))
	if av >= maxF+ulp/2 {
		return fp8.Inf(neg)
	}
	if neg {
		return bestBits | fp8.signMask()
	}
	return bestBits
}

func TestFP8FormatBasics(t *testing.T) {
	if fp8.Bias() != 7 || fp8.Precision() != 4 || fp8.TotalBits() != 8 {
		t.Fatalf("fp8 parameters: bias=%d p=%d", fp8.Bias(), fp8.Precision())
	}
	if got := fp8.ToFloat64(fp8.MaxFinite(false)); got != 240 {
		t.Fatalf("fp8 max = %v, want 240", got)
	}
	if got := fp8.ToFloat64(fp8.MinSubnormal()); got != 0x1p-9 {
		t.Fatalf("fp8 min subnormal = %v, want 2^-9", got)
	}
}

func TestFP8AddExhaustive(t *testing.T) {
	var e Env
	for a := uint64(0); a < 1<<8; a++ {
		if fp8.IsNaN(a) {
			continue
		}
		for b := uint64(0); b < 1<<8; b++ {
			if fp8.IsNaN(b) {
				continue
			}
			got := fp8.Add(&e, a, b)
			// Exact in float64 (4-bit significands, tiny exponents),
			// then independently rounded.
			exact := fp8.ToFloat64(a) + fp8.ToFloat64(b)
			want := refRoundFP8(exact)
			if got != want && !(fp8.IsNaN(got) && fp8.IsNaN(want)) {
				// Signed zero disagreements are resolved by IEEE rules
				// the reference rounder doesn't model; only accept
				// those for exact-zero sums.
				if exact == 0 && fp8.IsZero(got) && fp8.IsZero(want) {
					continue
				}
				t.Fatalf("fp8 add(%#02x~%v, %#02x~%v) = %#02x (%v), want %#02x (%v)",
					a, fp8.ToFloat64(a), b, fp8.ToFloat64(b),
					got, fp8.ToFloat64(got), want, fp8.ToFloat64(want))
			}
		}
	}
}

func TestFP8MulExhaustive(t *testing.T) {
	var e Env
	for a := uint64(0); a < 1<<8; a++ {
		if fp8.IsNaN(a) {
			continue
		}
		for b := uint64(0); b < 1<<8; b++ {
			if fp8.IsNaN(b) {
				continue
			}
			got := fp8.Mul(&e, a, b)
			va, vb := fp8.ToFloat64(a), fp8.ToFloat64(b)
			exact := va * vb // exact: products of 4-bit significands
			want := refRoundFP8(exact)
			if got != want && !(fp8.IsNaN(got) && fp8.IsNaN(want)) {
				if exact == 0 && fp8.IsZero(got) && fp8.IsZero(want) {
					continue
				}
				t.Fatalf("fp8 mul(%v, %v) = %v, want %v",
					va, vb, fp8.ToFloat64(got), fp8.ToFloat64(want))
			}
		}
	}
}

func TestFP8DivExhaustiveViaDouble(t *testing.T) {
	// Division is not exact in float64, but p=4 and double rounding
	// from 53 bits is safe (53 >= 2*4+2): round(double(q)) ==
	// round(exact q).
	var e Env
	for a := uint64(0); a < 1<<8; a++ {
		if fp8.IsNaN(a) {
			continue
		}
		for b := uint64(0); b < 1<<8; b++ {
			if fp8.IsNaN(b) {
				continue
			}
			got := fp8.Div(&e, a, b)
			va, vb := fp8.ToFloat64(a), fp8.ToFloat64(b)
			q := va / vb
			want := refRoundFP8(q)
			if got != want && !(fp8.IsNaN(got) && fp8.IsNaN(want)) {
				if q == 0 && fp8.IsZero(got) && fp8.IsZero(want) {
					continue
				}
				t.Fatalf("fp8 div(%v, %v) = %v, want %v",
					va, vb, fp8.ToFloat64(got), fp8.ToFloat64(want))
			}
		}
	}
}

func TestFP8SqrtExhaustive(t *testing.T) {
	var e Env
	for a := uint64(0); a < 1<<8; a++ {
		if fp8.IsNaN(a) {
			continue
		}
		got := fp8.Sqrt(&e, a)
		want := refRoundFP8(math.Sqrt(fp8.ToFloat64(a)))
		if got != want && !(fp8.IsNaN(got) && fp8.IsNaN(want)) {
			t.Fatalf("fp8 sqrt(%v) = %v, want %v",
				fp8.ToFloat64(a), fp8.ToFloat64(got), fp8.ToFloat64(want))
		}
	}
}

func TestFP8EncodingCensus(t *testing.T) {
	counts := map[string]int{}
	for x := uint64(0); x < 1<<8; x++ {
		counts[classOf(fp8, x)]++
	}
	// 2 zeros, 2 infs, 2*7 subnormals, 2*(14 exps * 8 fracs - 8)
	// normals = 2*104... compute: normals per sign: exp in 1..14, 8
	// fracs = 112; subnormals per sign 7; NaNs: frac != 0 with exp 15:
	// 7 per sign, quiet bit (bit 2) set -> 4 quiet, 3 signaling per
	// sign.
	if counts["+normal"] != 112 || counts["-normal"] != 112 {
		t.Fatalf("normals: %v", counts)
	}
	if counts["+subnormal"] != 7 || counts["-subnormal"] != 7 {
		t.Fatalf("subnormals: %v", counts)
	}
	if counts["qNaN"] != 8 || counts["sNaN"] != 6 {
		t.Fatalf("NaNs: %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 256 {
		t.Fatalf("census total %d", total)
	}
}
