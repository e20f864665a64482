package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"fpstudy/internal/parallel"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceMedian(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if !close(Variance(xs), 32.0/7, 1e-12) {
		t.Fatalf("variance %v", Variance(xs))
	}
	if Median(xs) != 4.5 {
		t.Fatalf("median %v", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || Median(nil) != 0 {
		t.Fatal("empty-input conventions")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
}

// TestSummarizeCountsVsSummarize pins SummarizeCounts against
// Summarize over the expanded sequence of randomized histograms: mean,
// median, min and max bit for bit, the sd within 1e-12 relative error.
func TestSummarizeCountsVsSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int64{
		nil,            // n = 0
		{0, 0, 0},      // n = 0 with bins
		{0, 0, 1},      // n = 1
		{0, 0, 0, 500}, // a single value
	}
	for i := 0; i < 300; i++ {
		counts := make([]int64, 1+rng.Intn(16))
		for k := range counts {
			if rng.Intn(3) > 0 {
				counts[k] = rng.Int63n(int64(1 + rng.Intn(400)))
			}
		}
		cases = append(cases, counts)
	}
	for _, counts := range cases {
		var xs []float64
		for k, c := range counts {
			for j := int64(0); j < c; j++ {
				xs = append(xs, float64(k))
			}
		}
		// A shuffled sequence: the summary must not depend on order.
		rng.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		want := Summarize(xs)
		got := SummarizeCounts(counts)
		if got.N != want.N || got.Mean != want.Mean || got.Median != want.Median ||
			got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("counts %v: got %+v, want %+v", counts, got, want)
		}
		if math.Abs(got.StdDev-want.StdDev) > 1e-12*math.Abs(want.StdDev) {
			t.Fatalf("counts %v: sd %v, want %v within 1e-12", counts, got.StdDev, want.StdDev)
		}
	}
	if s := SummarizeCounts([]int64{0, 0, 0, 500}); s.StdDev != 0 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("single value: %+v", s)
	}
	if s := SummarizeCounts([]int64{0, 1}); s.N != 1 || s.StdDev != 0 || s.Min != 1 || s.Max != 1 {
		t.Fatalf("n=1: %+v", s)
	}
}

func TestLikertDist(t *testing.T) {
	d := NewLikertDist([]int{1, 1, 3, 5, 5, 5, 99, 0}, 5)
	if d.N != 6 {
		t.Fatalf("n %d", d.N)
	}
	if !close(d.Percent[0], 100.0/3, 1e-9) || !close(d.Percent[4], 50, 1e-9) {
		t.Fatalf("percent %v", d.Percent)
	}
	want := (1.0*2 + 3 + 5*3) / 6
	if !close(d.MeanLevel(), want, 1e-9) {
		t.Fatalf("mean level %v want %v", d.MeanLevel(), want)
	}
}

func TestChiSquare(t *testing.T) {
	// Perfect fit: statistic 0.
	stat, df := ChiSquareGOF([]int{25, 25, 25, 25}, []float64{1, 1, 1, 1})
	if stat != 0 || df != 3 {
		t.Fatalf("stat %v df %d", stat, df)
	}
	// Known example: observed 40/60 vs fair coin => chi2 = 4.
	stat, df = ChiSquareGOF([]int{40, 60}, []float64{0.5, 0.5})
	if !close(stat, 4, 1e-9) || df != 1 {
		t.Fatalf("stat %v df %d", stat, df)
	}
	if stat < ChiSquareCritical05(1) {
		t.Fatal("chi2=4 should exceed 3.841")
	}
	if !close(ChiSquareCritical05(5), 11.07, 0.01) {
		t.Fatal("critical table")
	}
	if ChiSquareCritical05(40) < 50 || ChiSquareCritical05(40) > 62 {
		t.Fatalf("WH approx df=40: %v", ChiSquareCritical05(40))
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := make([]uint8, 200)
	for i := range xs {
		xs[i] = uint8(i % 10)
	}
	lo, hi := BootstrapMeanCI(xs, 0.95, 2000, 1, 0)
	m := 4.5 // the mean of 0..9, each 20 times
	if !(lo < m && m < hi) {
		t.Fatalf("CI [%v, %v] should contain %v", lo, hi, m)
	}
	if hi-lo > 1.5 {
		t.Fatalf("CI too wide: [%v, %v]", lo, hi)
	}
	// Deterministic.
	lo2, hi2 := BootstrapMeanCI(xs, 0.95, 2000, 1, 0)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap not deterministic")
	}
}

// TestBootstrapMeanCIWorkers pins that the interval is bit-identical at
// any worker count, and pins its value at one seed.
func TestBootstrapMeanCIWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	xs := make([]uint8, 200)
	for i := range xs {
		xs[i] = uint8(i % 10)
	}
	const wantLo, wantHi = 0x4010_6666_6666_6666, 0x4013_8a3d_70a3_d70a // 4.1, 4.885
	for _, workers := range []int{1, 3, 16} {
		lo, hi := BootstrapMeanCI(xs, 0.95, 2000, 1, workers)
		if math.Float64bits(lo) != wantLo || math.Float64bits(hi) != wantHi {
			t.Errorf("workers=%d: CI [%v, %v] bits %#x %#x, want %#x %#x",
				workers, lo, hi, math.Float64bits(lo), math.Float64bits(hi), uint64(wantLo), uint64(wantHi))
		}
	}
}

func TestBootstrapMeanCIRejectsBadArgs(t *testing.T) {
	for _, c := range []struct {
		level float64
		iters int
		want  string
	}{
		{0.95, 0, "iters = 0"},
		{0.95, -1, "iters = -1"},
		{0, 2000, "level = 0"},
		{1, 2000, "level = 1"},
		{math.NaN(), 2000, "level = NaN"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("level=%v iters=%d: panic %q, want one naming %q", c.level, c.iters, msg, c.want)
				}
			}()
			BootstrapMeanCI([]uint8{1, 2, 3}, c.level, c.iters, 1, 1)
		}()
	}
}

// coveragePopulation is a discrete score population on 0..15 shaped
// like Figure 12's core scores: coveragePopulation[k] respondents of
// 1000 score k, so its mean is known exactly (8.358; sd 2.73).
var coveragePopulation = [16]int{3, 6, 12, 22, 38, 62, 95, 130, 150, 145, 120, 90, 62, 37, 20, 8}

// TestBootstrapCoverage draws K samples of n=199 from
// coveragePopulation and counts how often the 95% interval contains the
// population mean. Binomial noise alone puts the count of a sound 95%
// interval within 3.29 sd of 0.95·K (two-sided 99.9%).
func TestBootstrapCoverage(t *testing.T) {
	const (
		k     = 400
		n     = 199
		level = 0.95
	)
	var cum [16]int
	total, sum := 0, 0
	for s, c := range coveragePopulation {
		total += c
		sum += s * c
		cum[s] = total
	}
	mean := float64(sum) / float64(total)
	base := parallel.StreamBase(7, 99)
	xs := make([]uint8, n)
	covered := 0
	for i := 0; i < k; i++ {
		x := parallel.At(base, int64(i))
		var r uint64
		for j := range xs {
			r, x = x.Next()
			u := parallel.Intn(r, total)
			s := 0
			for u >= cum[s] {
				s++
			}
			xs[j] = uint8(s)
		}
		lo, hi := BootstrapMeanCI(xs, level, 2000, int64(i), 0)
		if lo <= mean && mean <= hi {
			covered++
		}
	}
	sd := math.Sqrt(level * (1 - level) / k)
	cov := float64(covered) / k
	if math.Abs(cov-level) > 3.29*sd {
		t.Fatalf("coverage %d/%d = %.4f, want within %.4f of %.2f", covered, k, cov, 3.29*sd, level)
	}
	t.Logf("coverage %d/%d = %.4f (band %.4f..%.4f)", covered, k, cov, level-3.29*sd, level+3.29*sd)
}

// BenchmarkBootstrapMeanCI times the calibration report's interval:
// 2,000 replicates of core-like scores (0..15) at the analyses
// workload's n = 50,000 and at the reproduce workload's n = 1,000,000.
func BenchmarkBootstrapMeanCI(b *testing.B) {
	for _, n := range []int{50000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := parallel.At(parallel.StreamBase(1, 99), 0)
			xs := make([]uint8, n)
			var r uint64
			for i := range xs {
				r, x = x.Next()
				xs[i] = uint8(parallel.Intn(r, 16))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bootstrapSink, _ = BootstrapMeanCI(xs, 0.95, 2000, int64(i), 0)
			}
		})
	}
}

var bootstrapSink float64

func TestCramersV(t *testing.T) {
	// Perfect association.
	v := CramersV([][]int{{50, 0}, {0, 50}})
	if !close(v, 1, 1e-9) {
		t.Fatalf("perfect V = %v", v)
	}
	// Independence.
	v = CramersV([][]int{{25, 25}, {25, 25}})
	if !close(v, 0, 1e-9) {
		t.Fatalf("independent V = %v", v)
	}
	if CramersV(nil) != 0 || CramersV([][]int{{0, 0}}) != 0 {
		t.Fatal("degenerate tables")
	}
}

func TestPointBiserial(t *testing.T) {
	// Group 1 clearly higher.
	b := []int{1, 1, 1, 0, 0, 0}
	v := []float64{10, 11, 12, 1, 2, 3}
	r := PointBiserial(b, v)
	if r < 0.9 {
		t.Fatalf("r = %v", r)
	}
	// No difference.
	r = PointBiserial([]int{1, 0, 1, 0}, []float64{5, 5, 5, 5})
	if r != 0 {
		t.Fatalf("flat r = %v", r)
	}
}

func TestSpearmanAndPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if !close(Pearson(xs, ys), 1, 1e-12) {
		t.Fatal("perfect pearson")
	}
	// Monotone but nonlinear: pearson < 1.
	ys2 := []float64{1, 8, 27, 64, 125}
	if Pearson(xs, ys2) >= 1 {
		t.Fatal("nonlinear pearson")
	}
}

func TestMeanPropertyShift(t *testing.T) {
	// Property: Mean(xs + c) == Mean(xs) + c.
	prop := func(raw []uint8, shift uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		c := float64(shift)
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + c
		}
		return close(Mean(ys), Mean(xs)+c, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVariancePropertyShiftInvariant(t *testing.T) {
	prop := func(raw []uint8, shift uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return close(Variance(ys), Variance(xs), 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
