package parallel

import (
	"math"
	"math/bits"
)

// XRand is the generation hot path's random source: xoshiro256++ with
// O(1) stream positioning. The pipeline's determinism contract needs a
// generator that can be positioned onto an arbitrary (seed, stream,
// index) stream before every work item; math/rand's lagged-Fibonacci
// source pays ~607 word initializations per Seed, which profiling
// showed was ~40% of total generation CPU. Positioning costs five
// splitmix64 rounds, one of which (StreamBase) a loop pays once.
//
// An XRand is a value: At returns one and Next returns the stepped
// copy, so a draw loop keeps the four state words in locals (registers,
// once inlined) from positioning to its last draw, and never loads or
// stores them through memory. The four words make XRand small enough
// for the compiler to treat as four scalars.
type XRand struct {
	s0, s1, s2, s3 uint64
}

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// StreamBase is the index-independent part of positioning a generator
// on the (seed, stream, ·) streams: one splitmix64 round over the seed
// and the stream id. Loops over many indices of one stream compute it
// once and position each index with At.
func StreamBase(seed int64, stream uint64) uint64 {
	return mix64(uint64(seed) + golden*stream)
}

// At returns the generator positioned at the start of stream index of
// base = StreamBase(seed, stream): one splitmix64 round mixes in the
// index, and four more expand the result into the xoshiro state, the
// initializer the xoshiro authors recommend. Distinct (stream, index)
// pairs yield statistically independent sequences, and every round is
// a bijection, so the all-zero state (the one fixed point xoshiro
// cannot leave) is unreachable.
func At(base uint64, index int64) XRand {
	v := mix64(base + uint64(index))
	var x XRand
	v += golden
	x.s0 = mix64(v)
	v += golden
	x.s1 = mix64(v)
	v += golden
	x.s2 = mix64(v)
	v += golden
	x.s3 = mix64(v)
	return x
}

// Next returns the next 64 random bits (xoshiro256++) and the generator
// stepped past them.
func (x XRand) Next() (uint64, XRand) {
	r := bits.RotateLeft64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return r, x
}

// Float64 maps one draw r to a uniform float64 in [0, 1): its top 53
// bits scaled by 2^-53, which is exact. So Float64(r) < p holds exactly
// when r>>11 < ceil(p·2^53) for any p in [0, 1], the integer form of
// the test a hot loop can precompute.
func Float64(r uint64) float64 {
	return float64(r>>11) * 0x1p-53
}

// Intn maps one draw r to a uniform int in [0, n) via the Lemire
// multiply-shift reduction. The reduction is not rejection-corrected:
// each outcome's probability is off from 1/n by less than 2^-64, a
// total variation of at most n·2^-64 per draw. That is below 2^-55 for
// the option counts (n < 2^9) and below 2^-40 for bootstrap indices up
// to n = 2^24, far under anything the statistical gates can resolve.
func Intn(r uint64, n int) int {
	hi, _ := bits.Mul64(r, uint64(n))
	return int(hi)
}

// ResampleSum draws len(xs) indices, each as Intn(Next(), len(xs)),
// and returns the sum of the values they pick, with the generator
// stepped past those draws: one bootstrap resample of xs, summed. The
// state stays in locals for the whole loop, so each draw costs the
// xoshiro step, one multiply and one byte load. The sum is an integer,
// exact for any len(xs) below 2^55.
func (x XRand) ResampleSum(xs []uint8) (int, XRand) {
	n := uint64(len(xs))
	sum := 0
	var r uint64
	for range xs {
		r, x = x.Next()
		hi, _ := bits.Mul64(r, n)
		sum += int(xs[hi])
	}
	return sum, x
}

// NormPair returns two independent standard normal variates via the
// Box-Muller transform, and the generator stepped past its two draws.
// The ability model needs exactly two normals per respondent (core and
// optimization noise), so the transform's natural pairing wastes
// nothing.
func (x XRand) NormPair() (float64, float64, XRand) {
	ru, x := x.Next()
	rv, x := x.Next()
	u := 1 - Float64(ru) // (0, 1]: keeps Log away from 0
	r := math.Sqrt(-2 * math.Log(u))
	s, c := math.Sincos(2 * math.Pi * Float64(rv))
	return r * c, r * s, x
}

// mix64 is the splitmix64 finalizer (Steele, Lea, Flood 2014): a
// bijective avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
