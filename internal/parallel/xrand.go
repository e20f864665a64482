package parallel

import (
	"math"
	"math/bits"
)

// XRand is the generation hot path's random source: xoshiro256++ with
// O(1) stream positioning. The pipeline's determinism contract needs a
// generator that can be repositioned onto an arbitrary (seed, stream,
// index) stream before every work item; math/rand's lagged-Fibonacci
// source pays ~607 word initializations per Seed, which profiling
// showed was ~40% of total generation CPU. SeedAt costs four splitmix64
// rounds, so repositioning is cheaper than a single draw used to be.
//
// XRand is not safe for concurrent use; hot loops hold one per worker
// (see ForEachWith) and reposition it per item or per (item, column).
type XRand struct {
	s0, s1, s2, s3 uint64
}

// NewXRand allocates a generator. The initial position is arbitrary:
// callers reposition with SeedAt before drawing.
func NewXRand() *XRand {
	x := &XRand{}
	x.SeedAt(0, 0, 0)
	return x
}

// SeedAt repositions the generator onto the (seed, stream, index)
// stream: the state is expanded from Seed(seed, stream, index) by four
// rounds of splitmix64, the initializer recommended by the xoshiro
// authors. Distinct (stream, index) pairs yield statistically
// independent sequences, and the expansion is bijective per round, so
// the all-zero state (the one fixed point xoshiro cannot leave) is
// unreachable.
func (x *XRand) SeedAt(seed int64, stream uint64, index int64) {
	v := uint64(Seed(seed, stream, index))
	v += 0x9e3779b97f4a7c15
	x.s0 = mix64(v)
	v += 0x9e3779b97f4a7c15
	x.s1 = mix64(v)
	v += 0x9e3779b97f4a7c15
	x.s2 = mix64(v)
	v += 0x9e3779b97f4a7c15
	x.s3 = mix64(v)
}

// Uint64 returns the next 64 random bits (xoshiro256++).
func (x *XRand) Uint64() uint64 {
	r := bits.RotateLeft64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return r
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (x *XRand) Float64() float64 {
	return float64(x.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n) via the Lemire multiply-shift
// reduction. The reduction is not rejection-corrected: each outcome's
// probability is off from 1/n by less than 2^-64, a total variation of
// at most n·2^-64 per draw. That is below 2^-55 for the option counts
// (n < 2^9) and below 2^-40 for bootstrap indices up to n = 2^24, far
// under anything the statistical gates can resolve.
func (x *XRand) Intn(n int) int {
	hi, _ := bits.Mul64(x.Uint64(), uint64(n))
	return int(hi)
}

// ResampleSum draws len(xs) indices into xs, each exactly as
// Intn(len(xs)) would draw it, and returns the sum of the values they
// pick: one bootstrap resample of xs, summed. The generator ends in the
// state those len(xs) Intn calls would leave it in. The four state
// words stay in locals for the whole loop and are written back once,
// so each draw costs the xoshiro step, one multiply and one byte load.
// The sum is an integer, exact for any len(xs) below 2^55.
func (x *XRand) ResampleSum(xs []uint8) int {
	n := uint64(len(xs))
	s0, s1, s2, s3 := x.s0, x.s1, x.s2, x.s3
	sum := 0
	for range xs {
		r := bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		hi, _ := bits.Mul64(r, n)
		sum += int(xs[hi])
	}
	x.s0, x.s1, x.s2, x.s3 = s0, s1, s2, s3
	return sum
}

// NormPair returns two independent standard normal variates via the
// Box-Muller transform. The ability model needs exactly two normals per
// respondent (core and optimization noise), so the transform's natural
// pairing wastes nothing.
func (x *XRand) NormPair() (float64, float64) {
	u := 1 - x.Float64() // (0, 1]: keeps Log away from 0
	v := x.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(2 * math.Pi * v)
	return r * c, r * s
}
