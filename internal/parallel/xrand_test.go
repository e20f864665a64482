package parallel

import (
	"math"
	"testing"
)

// TestXRandDeterministicStreams pins the repositioning contract: the
// same (seed, stream, index) always replays the same sequence, distinct
// indices give unrelated sequences, and mid-stream repositioning fully
// resets the state.
func TestXRandDeterministicStreams(t *testing.T) {
	a, b := NewXRand(), NewXRand()
	for index := int64(0); index < 50; index++ {
		a.SeedAt(42, 2, index)
		b.SeedAt(42, 2, index)
		for d := 0; d < 20; d++ {
			if got, want := a.Uint64(), b.Uint64(); got != want {
				t.Fatalf("index %d draw %d: %d != %d", index, d, got, want)
			}
		}
	}
	a.SeedAt(42, 2, 7)
	want := a.Uint64()
	a.Float64()
	a.Intn(100)
	a.SeedAt(42, 2, 7)
	if a.Uint64() != want {
		t.Fatal("SeedAt after partial consumption diverged")
	}

	a.SeedAt(7, 1, 10)
	b.SeedAt(7, 1, 11)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d identical draws between adjacent index streams", same)
	}
}

// TestXRandSubStreamIndependence checks the packed (index<<5 | column)
// sub-stream scheme the column-major sampler uses: packing must not
// introduce correlated or colliding streams.
func TestXRandSubStreamIndependence(t *testing.T) {
	rng := NewXRand()
	seen := map[uint64]bool{}
	for i := int64(0); i < 200; i++ {
		for sub := int64(0); sub < 32; sub++ {
			rng.SeedAt(42, 2, i<<5|sub)
			v := rng.Uint64()
			if seen[v] {
				t.Fatalf("first-draw collision at index %d sub %d", i, sub)
			}
			seen[v] = true
		}
	}
}

func TestXRandFloat64Range(t *testing.T) {
	rng := NewXRand()
	rng.SeedAt(1, 1, 1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestXRandIntnBoundsAndUniformity(t *testing.T) {
	rng := NewXRand()
	rng.SeedAt(3, 1, 9)
	const n, buckets = 120000, 7
	var counts [buckets]int
	for i := 0; i < n; i++ {
		v := rng.Intn(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Intn(%d) = %d", buckets, v)
		}
		counts[v]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, c, want)
		}
	}
}

// TestXRandNormPairMoments sanity-checks the Box-Muller pair: both
// coordinates standard normal, uncorrelated.
func TestXRandNormPairMoments(t *testing.T) {
	rng := NewXRand()
	rng.SeedAt(5, 1, 2)
	const n = 100000
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := rng.NormPair()
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	mx, my := sx/n, sy/n
	vx, vy := sxx/n-mx*mx, syy/n-my*my
	cov := sxy/n - mx*my
	if math.Abs(mx) > 0.02 || math.Abs(my) > 0.02 {
		t.Fatalf("means %v %v, want ~0", mx, my)
	}
	if math.Abs(vx-1) > 0.03 || math.Abs(vy-1) > 0.03 {
		t.Fatalf("variances %v %v, want ~1", vx, vy)
	}
	if math.Abs(cov) > 0.02 {
		t.Fatalf("covariance %v, want ~0", cov)
	}
}

// TestResampleSumMatchesIntn pins ResampleSum's contract against the
// loop it fuses: the same sum as len(xs) Intn(len(xs)) draws gathering
// from xs, and the same generator state afterwards, so the next draw
// agrees too.
func TestResampleSumMatchesIntn(t *testing.T) {
	fill := NewXRand()
	a, b := NewXRand(), NewXRand()
	for _, n := range []int{1, 2, 3, 255, 4096, 50000, 1<<20 + 7} {
		fill.SeedAt(11, 5, int64(n))
		xs := make([]uint8, n)
		for i := range xs {
			xs[i] = uint8(fill.Uint64())
		}
		for _, seed := range []int64{0, 1, 42, -7} {
			a.SeedAt(seed, 4, int64(n))
			b.SeedAt(seed, 4, int64(n))
			got := a.ResampleSum(xs)
			want := 0
			for range xs {
				want += int(xs[b.Intn(n)])
			}
			if got != want {
				t.Fatalf("n=%d seed=%d: ResampleSum = %d, Intn loop = %d", n, seed, got, want)
			}
			if ga, gb := a.Uint64(), b.Uint64(); ga != gb {
				t.Fatalf("n=%d seed=%d: next draw %#x after ResampleSum, %#x after the Intn loop", n, seed, ga, gb)
			}
		}
	}
	if got := a.ResampleSum(nil); got != 0 {
		t.Fatalf("ResampleSum(nil) = %d, want 0", got)
	}
}

// TestResampleSumZeroAlloc pins that a resample allocates nothing: the
// bootstrap runs 2,000 of them per interval.
func TestResampleSumZeroAlloc(t *testing.T) {
	rng := NewXRand()
	xs := make([]uint8, 4096)
	sum := 0
	if allocs := testing.AllocsPerRun(50, func() { sum += rng.ResampleSum(xs) }); allocs != 0 {
		t.Fatalf("ResampleSum allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSeedAt times repositioning the generator (four splitmix
// rounds), which the hot loops pay once per respondent.
func BenchmarkSeedAt(b *testing.B) {
	rng := NewXRand()
	for n := 0; n < b.N; n++ {
		rng.SeedAt(42, 2, int64(n))
	}
}

func BenchmarkXRandUint64(b *testing.B) {
	rng := NewXRand()
	rng.SeedAt(42, 2, 1)
	var acc uint64
	for n := 0; n < b.N; n++ {
		acc += rng.Uint64()
	}
	_ = acc
}

// BenchmarkResampleSum times one bootstrap resample of n = 50,000
// core-like scores (0..15), the calibration report's cohort size; ns/op
// divided by n is the price of one draw and gather.
func BenchmarkResampleSum(b *testing.B) {
	rng := NewXRand()
	rng.SeedAt(1, 99, 0)
	xs := make([]uint8, 50000)
	for i := range xs {
		xs[i] = uint8(rng.Intn(16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for n := 0; n < b.N; n++ {
		sum += rng.ResampleSum(xs)
	}
	resampleSink = sum
}

var resampleSink int
