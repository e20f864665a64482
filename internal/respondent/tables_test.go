package respondent

import (
	"fmt"
	"testing"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
)

// TestPickMatchesCumulativeSearch pins every single-choice table's pick
// table against the search it replaces: for every r in [0, total), the
// entry is the first k whose cumulative published count exceeds r.
func TestPickMatchesCumulativeSearch(t *testing.T) {
	tb := tables()
	for _, c := range []struct {
		name    string
		t       *choiceTable
		entries []paperdata.CountEntry
	}{
		{"position", &tb.position, paperdata.Figure1Positions},
		{"area", &tb.area, paperdata.Figure2Areas},
		{"training", &tb.training, paperdata.Figure3FormalTraining},
		{"role", &tb.role, paperdata.Figure5Roles},
		{"contribSize", &tb.contribSize, paperdata.Figure8ContribSize},
		{"contribExtent", &tb.contribExtent, paperdata.Figure9ContribExtent},
		{"involvedSize", &tb.involvedSize, paperdata.Figure10InvolvedSize},
		{"involvedExtent", &tb.involvedExtent, paperdata.Figure11InvolvedExtent},
	} {
		var cum []int
		total := 0
		for _, e := range c.entries {
			total += e.N
			cum = append(cum, total)
		}
		if len(c.t.pick) != total {
			t.Fatalf("%s: pick table has %d entries, published counts sum to %d", c.name, len(c.t.pick), total)
		}
		for r := 0; r < total; r++ {
			want := len(cum) - 1
			for k, cu := range cum {
				if r < cu {
					want = k
					break
				}
			}
			if got := int(c.t.pick[r]); got != want {
				t.Fatalf("%s: pick[%d] = %d, cumulative search gives %d", c.name, r, got, want)
			}
		}
	}
}

// checkThreshold pins one integer inclusion test: r>>11 < th holds
// exactly when Float64(r) < p. The draws th<<11 - 1 and th<<11, the
// last one below the threshold and the first one at it, must fall on
// either side of p (a p of 0 has no draw below, a p of 1 none at or
// above).
func checkThreshold(t *testing.T, what string, th uint64, p float64) {
	t.Helper()
	if th > 0 {
		if r := th<<11 - 1; !(parallel.Float64(r) < p) {
			t.Errorf("%s: draw %#x is below the threshold, but Float64 = %v is not below p = %v", what, r, parallel.Float64(r), p)
		}
	} else if p != 0 {
		t.Errorf("%s: threshold 0 for p = %v", what, p)
	}
	if th < 1<<53 {
		if r := th << 11; parallel.Float64(r) < p {
			t.Errorf("%s: draw %#x is at the threshold, but Float64 = %v is below p = %v", what, r, parallel.Float64(r), p)
		}
	} else if p != 1 {
		t.Errorf("%s: threshold 2^53 for p = %v", what, p)
	}
}

// TestMultiThresholdsMatchFloat64 pins the integer inclusion test of
// every multi-select entry (see checkThreshold), and random generators
// then draw whole masks both ways.
func TestMultiThresholdsMatchFloat64(t *testing.T) {
	tb := tables()
	for _, c := range []struct {
		name    string
		t       *multiTable
		entries []paperdata.CountEntry
	}{
		{"informal", &tb.informal, paperdata.Figure4InformalTraining},
		{"languages", &tb.languages, paperdata.Figure6FPLanguages},
		{"arbprec", &tb.arbprec, paperdata.Figure7ArbPrec},
	} {
		for k, e := range c.entries {
			checkThreshold(t, fmt.Sprintf("%s entry %d", c.name, k), c.t.th[k], float64(e.N)/float64(paperdata.NMain))
		}
		base := parallel.StreamBase(5, 77)
		for i := int64(0); i < 20000; i++ {
			x := parallel.At(base, i)
			got, after := c.t.mask(x)
			var want uint64
			var r uint64
			for k, e := range c.entries {
				r, x = x.Next()
				if parallel.Float64(r) < float64(e.N)/float64(paperdata.NMain) {
					want |= c.t.bit[k]
				}
			}
			if got != want || after != x {
				t.Fatalf("%s generator %d: mask %#x, Float64 draws give %#x (states %+v, %+v)", c.name, i, got, want, after, x)
			}
		}
	}
}

// TestUnansweredThresholdsMatchFloat64 pins the unanswered gate of
// every quiz question's sampler the same way.
func TestUnansweredThresholdsMatchFloat64(t *testing.T) {
	for k, s := range quizSpecs() {
		checkThreshold(t, s.qm.id+" unanswered", newColModel(s.qm, k).unTh, s.qm.pUn)
	}
}

// likertLevelFloat is the float compare chain likertLevel replaces: the
// first level whose cumulative weight exceeds u*cum[4].
func likertLevelFloat(u float64, cum *[5]float64) int {
	x := u * cum[4]
	for i, c := range cum {
		if x < c {
			return i + 1
		}
	}
	return 5
}

// TestLikertThresholdsMatchFloat pins likertLevel against the float
// chain on every Figure 22 row of both cohorts: at each threshold and
// one draw either side of it, and on 2^21 random draws per row.
func TestLikertThresholdsMatchFloat(t *testing.T) {
	rows := append(append([]paperdata.SuspicionDist(nil), paperdata.Figure22Main...), paperdata.Figure22Student...)
	for k, dist := range rows {
		cum := cumulative(dist.Percent)
		th := likertThresholds(cum)
		check := func(r uint64) {
			if got, want := likertLevel(r, &th), likertLevelFloat(parallel.Float64(r), &cum); got != want {
				t.Fatalf("row %d (%s): draw %#x gives level %d, the float chain %d", k, dist.Condition, r, got, want)
			}
		}
		for _, tk := range th {
			for _, d := range []int64{-1, 0, 1} {
				if j := int64(tk) + d; j >= 0 && j < 1<<53 {
					check(uint64(j) << 11)
					check(uint64(j)<<11 | 1<<11 - 1)
				}
			}
		}
		x := parallel.At(parallel.StreamBase(int64(k), 0), 0)
		var r uint64
		for i := 0; i < 1<<21; i++ {
			r, x = x.Next()
			check(r)
		}
	}
}
