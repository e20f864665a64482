// Package stats provides the descriptive and inferential statistics the
// survey analysis needs: summaries, histograms, Likert distributions,
// chi-square tests, association and correlation measures, and
// bootstrap confidence intervals. Deterministic where seeded: the
// bootstrap draws from internal/parallel's per-index streams, so its
// interval does not depend on the worker count.
package stats

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"fpstudy/internal/parallel"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Summary bundles the standard descriptive statistics.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Median = Median(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// SummarizeCounts summarises the observations of an integer-count
// histogram, counts[k] being the number of observations equal to k. It
// never expands the sequence. Mean, Median, Min and Max are
// bit-identical to Summarize over the expanded sequence: every sum of
// integers below 2^53 is exact in float64. StdDev comes from exact
// integer moments, (nΣx² − (Σx)²)/(n(n−1)) as a rational rounded once
// to float64, so it can differ from Summarize's two-pass float sum in
// the last bits, and is the more accurate of the two.
func SummarizeCounts(counts []int64) Summary {
	var n, sum int64
	sumSq := new(big.Int)
	for k, c := range counts {
		n += c
		sum += int64(k) * c
		sumSq.Add(sumSq, new(big.Int).Mul(big.NewInt(int64(k)*int64(k)), big.NewInt(c)))
	}
	s := Summary{N: int(n)}
	if n == 0 {
		return s
	}
	s.Mean = float64(sum) / float64(n)
	if n > 1 {
		num := new(big.Int).Mul(big.NewInt(n), sumSq)
		num.Sub(num, new(big.Int).Mul(big.NewInt(sum), big.NewInt(sum)))
		den := new(big.Int).Mul(big.NewInt(n), big.NewInt(n-1))
		v, _ := new(big.Rat).SetFrac(num, den).Float64()
		s.StdDev = math.Sqrt(v)
	}
	// at returns the i-th smallest observation (0-based).
	at := func(i int64) float64 {
		for k, c := range counts {
			if i < c {
				return float64(k)
			}
			i -= c
		}
		return 0
	}
	if n%2 == 1 {
		s.Median = at(n / 2)
	} else {
		s.Median = (at(n/2-1) + at(n/2)) / 2
	}
	s.Min, s.Max = at(0), at(n-1)
	return s
}

// IntHistogram counts integer-valued observations into bins [0..max].
type IntHistogram struct {
	Counts []int
	Total  int
}

// LikertDist is the percentage distribution over levels 1..Scale.
type LikertDist struct {
	Scale   int
	Percent []float64 // index 0 = level 1
	N       int
}

// NewLikertDist tabulates levels (1-based; out-of-range ignored).
func NewLikertDist(levels []int, scale int) LikertDist {
	d := LikertDist{Scale: scale, Percent: make([]float64, scale)}
	for _, l := range levels {
		if l >= 1 && l <= scale {
			d.Percent[l-1]++
			d.N++
		}
	}
	if d.N > 0 {
		for i := range d.Percent {
			d.Percent[i] = 100 * d.Percent[i] / float64(d.N)
		}
	}
	return d
}

// LikertDistFromCounts tabulates a distribution from per-level counts
// (counts[i] = level i+1). It is bit-identical to NewLikertDist over
// the expanded level sequence: integer counts are exact in float64, so
// starting from the count instead of unit increments changes nothing.
func LikertDistFromCounts(counts []int64, scale int) LikertDist {
	d := LikertDist{Scale: scale, Percent: make([]float64, scale)}
	for i, c := range counts {
		if i >= scale {
			break
		}
		d.Percent[i] = float64(c)
		d.N += int(c)
	}
	if d.N > 0 {
		for i := range d.Percent {
			d.Percent[i] = 100 * d.Percent[i] / float64(d.N)
		}
	}
	return d
}

// MeanLevel returns the mean Likert level.
func (d LikertDist) MeanLevel() float64 {
	if d.N == 0 {
		return 0
	}
	s := 0.0
	for i, p := range d.Percent {
		s += float64(i+1) * p
	}
	return s / 100
}

// ChiSquareGOF computes the chi-square goodness-of-fit statistic of
// observed counts against expected proportions (which are normalized).
// It returns the statistic and degrees of freedom. Bins with expected
// count zero are skipped.
func ChiSquareGOF(observed []int, expectedProp []float64) (stat float64, df int) {
	if len(observed) != len(expectedProp) {
		panic("stats: chi-square length mismatch")
	}
	total := 0
	for _, o := range observed {
		total += o
	}
	psum := 0.0
	for _, p := range expectedProp {
		psum += p
	}
	for i, o := range observed {
		if expectedProp[i] <= 0 || psum == 0 {
			continue
		}
		e := float64(total) * expectedProp[i] / psum
		d := float64(o) - e
		stat += d * d / e
		df++
	}
	if df > 0 {
		df--
	}
	return stat, df
}

// ChiSquareCritical05 returns the 5% critical value for small degrees
// of freedom (table lookup; df > 30 uses the Wilson-Hilferty
// approximation).
func ChiSquareCritical05(df int) float64 {
	table := []float64{0, 3.841, 5.991, 7.815, 9.488, 11.070, 12.592,
		14.067, 15.507, 16.919, 18.307, 19.675, 21.026, 22.362, 23.685,
		24.996, 26.296, 27.587, 28.869, 30.144, 31.410}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	// Wilson-Hilferty: chi2_p(df) ~ df * (1 - 2/(9df) + z_p sqrt(2/(9df)))^3.
	z := 1.6449 // z_{0.95}
	k := float64(df)
	return k * math.Pow(1-2/(9*k)+z*math.Sqrt(2/(9*k)), 3)
}

// streamBootstrap is the parallel stream id of the bootstrap
// replicates: replicate r draws from (seed, streamBootstrap, r). It
// must differ from the respondent generator's streams (2, 3 and 10),
// or under a shared study seed replicate r would replay respondent r's
// draws.
const streamBootstrap uint64 = 4

// BootstrapMeanCI returns a percentile bootstrap confidence interval
// for the mean of the small integers xs (scores, counts) at the given
// level (e.g. 0.95), using iters resamples. Replicate r draws its n
// indices from its own (seed, streamBootstrap, r) stream through
// XRand.ResampleSum, which sums the values they pick as an integer;
// the replicate mean is that sum divided by n. An integer sum is exact,
// so it equals the float sum of the same values in any order, and the
// replicate means are stored by index, so the interval is bit-identical
// at any worker count (workers <= 0 means GOMAXPROCS).
// With the B = iters means sorted and α = (1-level)/2, the bounds are
// means[⌊αB⌋] and means[B-1-⌊αB⌋], the same rank from either end. It
// panics unless iters >= 1 and 0 < level < 1.
func BootstrapMeanCI(xs []uint8, level float64, iters int, seed int64, workers int) (lo, hi float64) {
	if iters < 1 {
		panic(fmt.Sprintf("stats: BootstrapMeanCI iters = %d, want >= 1", iters))
	}
	if !(level > 0 && level < 1) {
		panic(fmt.Sprintf("stats: BootstrapMeanCI level = %v, want in (0, 1)", level))
	}
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	means := make([]float64, iters)
	base := parallel.StreamBase(seed, streamBootstrap)
	parallel.ForEach(workers, iters, func(r int) {
		sum, _ := parallel.At(base, int64(r)).ResampleSum(xs)
		means[r] = float64(sum) / float64(n)
	})
	sort.Float64s(means)
	k := int((1 - level) / 2 * float64(iters))
	return means[k], means[iters-1-k]
}

// CramersV measures association between two categorical variables given
// a contingency table (rows x cols of counts).
func CramersV(table [][]int) float64 {
	rows := len(table)
	if rows == 0 {
		return 0
	}
	cols := len(table[0])
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	total := 0.0
	for i := range table {
		for j := range table[i] {
			rowSum[i] += float64(table[i][j])
			colSum[j] += float64(table[i][j])
			total += float64(table[i][j])
		}
	}
	if total == 0 {
		return 0
	}
	chi2 := 0.0
	for i := range table {
		for j := range table[i] {
			e := rowSum[i] * colSum[j] / total
			if e > 0 {
				d := float64(table[i][j]) - e
				chi2 += d * d / e
			}
		}
	}
	k := math.Min(float64(rows-1), float64(cols-1))
	if k <= 0 {
		return 0
	}
	return math.Sqrt(chi2 / (total * k))
}

// PointBiserial computes the correlation between a binary variable
// (encoded 0/1) and a continuous one.
func PointBiserial(binary []int, values []float64) float64 {
	if len(binary) != len(values) || len(values) < 2 {
		return 0
	}
	// Group sums accumulate in index order, exactly as Mean would over
	// the two groups, without materializing them.
	var s1, s0, n1, n0 float64
	for i, b := range binary {
		if b == 1 {
			s1 += values[i]
			n1++
		} else {
			s0 += values[i]
			n0++
		}
	}
	n := float64(len(values))
	if n1 == 0 || n0 == 0 {
		return 0
	}
	sd := math.Sqrt(Variance(values) * (n - 1) / n) // population sd
	if sd == 0 {
		return 0
	}
	return (s1/n1 - s0/n0) / sd * math.Sqrt(n1*n0/(n*n))
}

func pearson(xs, ys []float64) float64 {
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Pearson computes the Pearson correlation coefficient.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	return pearson(xs, ys)
}
