// Package stats provides the descriptive and inferential statistics the
// survey analysis needs: summaries, histograms, grouped means, Likert
// distributions, chi-square tests, binomial tests against chance, and
// bootstrap confidence intervals. Stdlib only; deterministic where
// seeded.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// IntHistogram counts integer-valued observations into bins [0..max].
type IntHistogram struct {
	Counts []int
	Total  int
}

// NewIntHistogram bins xs (rounded to nearest int, clamped to [0, max]).
func NewIntHistogram(xs []float64, max int) IntHistogram {
	h := IntHistogram{Counts: make([]int, max+1)}
	for _, x := range xs {
		i := int(math.Round(x))
		if i < 0 {
			i = 0
		}
		if i > max {
			i = max
		}
		h.Counts[i]++
		h.Total++
	}
	return h
}

// Mode returns the bin with the largest count.
func (h IntHistogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

// Render draws an ASCII bar chart of the histogram.
func (h IntHistogram) Render(width int) string {
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	out := ""
	for i, c := range h.Counts {
		bar := ""
		n := c * width / maxC
		for j := 0; j < n; j++ {
			bar += "#"
		}
		out += fmt.Sprintf("%3d | %-*s %d\n", i, width, bar, c)
	}
	return out
}

// GroupedMeans computes the mean of values per group label, returning
// groups in first-seen order.
type GroupMean struct {
	Group string
	N     int
	Mean  float64
	SD    float64
}

// GroupMeans aggregates values by their group label.
func GroupMeans(groups []string, values []float64) []GroupMean {
	if len(groups) != len(values) {
		panic("stats: groups and values length mismatch")
	}
	order := []string{}
	byGroup := map[string][]float64{}
	for i, g := range groups {
		if _, ok := byGroup[g]; !ok {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], values[i])
	}
	out := make([]GroupMean, 0, len(order))
	for _, g := range order {
		vs := byGroup[g]
		out = append(out, GroupMean{Group: g, N: len(vs), Mean: Mean(vs), SD: StdDev(vs)})
	}
	return out
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

// BinomialTestAboveChance tests whether k successes in n trials exceed
// probability p by more than luck, using the normal approximation.
// Returns the z statistic; z > 1.645 is significant at 5% (one-sided).
func BinomialTestAboveChance(k, n int, p float64) float64 {
	if n == 0 {
		return 0
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if sd == 0 {
		return 0
	}
	return (float64(k) - mean) / sd
}

// BootstrapMeanCI returns a percentile bootstrap confidence interval
// for the mean at the given level (e.g. 0.95), using iters resamples
// with a deterministic seed.
func BootstrapMeanCI(xs []float64, level float64, iters int, seed int64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, iters)
	for i := 0; i < iters; i++ {
		s := 0.0
		for j := 0; j < len(xs); j++ {
			s += xs[rng.Intn(len(xs))]
		}
		means[i] = s / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	loIdx := int(alpha * float64(iters))
	hiIdx := int((1 - alpha) * float64(iters))
	if hiIdx >= iters {
		hiIdx = iters - 1
	}
	return means[loIdx], means[hiIdx]
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

// SpearmanRank computes Spearman's rank correlation between two
// equal-length slices (average ranks for ties).
func SpearmanRank(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	return pearson(rx, ry)
}

func ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(xs))
	for i, v := range xs {
		s[i] = iv{i, v}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	r := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			r[s[k].i] = avg
		}
		i = j
	}
	return r
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
