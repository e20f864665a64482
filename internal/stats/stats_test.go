package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
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

func TestHistogram(t *testing.T) {
	h := NewIntHistogram([]float64{0, 1, 1, 2.4, 2.6, 15, -3, 99}, 15)
	if h.Total != 8 {
		t.Fatalf("total %d", h.Total)
	}
	if h.Counts[0] != 2 { // 0 and -3 clamped
		t.Fatalf("bin0 %d", h.Counts[0])
	}
	if h.Counts[1] != 2 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Fatalf("bins %v", h.Counts)
	}
	if h.Counts[15] != 2 { // 15 and 99 clamped
		t.Fatalf("bin15 %d", h.Counts[15])
	}
	if h.Mode() != 0 && h.Mode() != 1 && h.Mode() != 15 {
		t.Fatalf("mode %d", h.Mode())
	}
	r := h.Render(20)
	if !strings.Contains(r, "#") || !strings.Contains(r, "15 |") {
		t.Fatalf("render:\n%s", r)
	}
}

func TestGroupMeans(t *testing.T) {
	gs := GroupMeans(
		[]string{"a", "b", "a", "b", "c"},
		[]float64{1, 10, 3, 20, 7},
	)
	if len(gs) != 3 {
		t.Fatalf("groups %v", gs)
	}
	if gs[0].Group != "a" || gs[0].Mean != 2 || gs[0].N != 2 {
		t.Fatalf("group a: %+v", gs[0])
	}
	if gs[1].Group != "b" || gs[1].Mean != 15 {
		t.Fatalf("group b: %+v", gs[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	GroupMeans([]string{"a"}, []float64{1, 2})
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

func TestBinomialTest(t *testing.T) {
	// 199 participants averaging 8.5/15 on T/F: test a single
	// participant count: 113/199 questions... use aggregate: k
	// correct of n at p=0.5.
	z := BinomialTestAboveChance(113, 199, 0.5)
	if z < 1.5 || z > 2.5 {
		t.Fatalf("z = %v", z)
	}
	if BinomialTestAboveChance(50, 100, 0.5) != 0 {
		t.Fatal("exactly chance should be z=0")
	}
	if BinomialTestAboveChance(0, 0, 0.5) != 0 {
		t.Fatal("n=0")
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	lo, hi := BootstrapMeanCI(xs, 0.95, 2000, 1)
	m := Mean(xs)
	if !(lo < m && m < hi) {
		t.Fatalf("CI [%v, %v] should contain %v", lo, hi, m)
	}
	if hi-lo > 1.5 {
		t.Fatalf("CI too wide: [%v, %v]", lo, hi)
	}
	// Deterministic.
	lo2, hi2 := BootstrapMeanCI(xs, 0.95, 2000, 1)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap not deterministic")
	}
}

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
	if !close(SpearmanRank(xs, ys), 1, 1e-12) {
		t.Fatal("perfect spearman")
	}
	// Monotone but nonlinear: spearman 1, pearson < 1.
	ys2 := []float64{1, 8, 27, 64, 125}
	if !close(SpearmanRank(xs, ys2), 1, 1e-12) {
		t.Fatal("monotone spearman")
	}
	if Pearson(xs, ys2) >= 1 {
		t.Fatal("nonlinear pearson")
	}
	// Reversed: -1.
	ys3 := []float64{5, 4, 3, 2, 1}
	if !close(SpearmanRank(xs, ys3), -1, 1e-12) {
		t.Fatal("reversed spearman")
	}
	// Ties get average ranks.
	r := ranks([]float64{1, 2, 2, 3})
	if r[1] != 2.5 || r[2] != 2.5 {
		t.Fatalf("tie ranks %v", r)
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
