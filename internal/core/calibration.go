package core

import (
	"fmt"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/stats"
)

// CalibrationReport quantifies how closely the regenerated data matches
// the paper's published aggregates: a chi-square goodness-of-fit per
// core question against the exact Figure 14 percentages, plus bootstrap
// confidence intervals for the Figure 12 means. It is the statistical
// backing for EXPERIMENTS.md.
func (r *Results) CalibrationReport() report.Table {
	t := report.Table{
		Title:  "Calibration: regenerated responses vs published distributions",
		Header: []string{"Question", "chi2", "df", "crit(5%)", "fit"},
	}
	d := r.Main.Cols
	n := d.Len()
	if n == 0 {
		t.Notes = append(t.Notes, noRespondents)
		return t
	}
	tab := quiz.ScoreTableFor(d.Schema)
	fails := 0
	for i, q := range quiz.CoreQuestions() {
		row := paperdata.Figure14Core[i]
		var c, inc, dk, un int
		for j := 0; j < n; j++ {
			switch tab.ClassifyCore(d, j, i) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			case quiz.OutcomeDontKnow:
				dk++
			case quiz.OutcomeUnanswered:
				un++
			}
		}
		observed := []int{c, inc, dk, un}
		expected := []float64{row.Correct, row.Incorrect, row.DontKnow, row.Unanswered}
		stat, df := stats.ChiSquareGOF(observed, expected)
		crit := stats.ChiSquareCritical05(df)
		fit := "ok"
		if stat > crit {
			fit = "off"
			fails++
		}
		t.AddRow(q.Label, report.F2(stat), report.I(df), report.F2(crit), fit)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d; %d/%d questions within the 5%% chi-square band of the published distribution",
			n, 15-fails, 15))

	// Bootstrap CI on the headline mean.
	tallies, _ := r.Tallies()
	scores := make([]float64, len(tallies))
	for i, tl := range tallies {
		scores[i] = float64(tl.Correct)
	}
	lo, hi := stats.BootstrapMeanCI(scores, 0.95, 2000, r.Study.Seed)
	t.Notes = append(t.Notes,
		fmt.Sprintf("core mean %.2f, 95%% bootstrap CI [%.2f, %.2f]; paper 8.5; chance 7.5",
			stats.Mean(scores), lo, hi))
	inBand := lo <= paperdata.Figure12Core.Correct && paperdata.Figure12Core.Correct <= hi
	t.Notes = append(t.Notes, fmt.Sprintf("paper mean inside CI: %v", inBand))
	return t
}

// FactorAssociation computes Cramér's V between each single-choice
// background factor and a above/below-median split of core scores — the
// "no particularly strong factor" analysis of Section IV-B in effect
// size terms.
func (r *Results) FactorAssociation() report.Table {
	t := report.Table{
		Title:  "Factor association with core score (Cramér's V on above/below-median split)",
		Header: []string{"Factor", "levels", "V", "strength"},
	}
	d := r.Main.Cols
	if d.Len() == 0 {
		t.Notes = append(t.Notes, noRespondents)
		return t
	}
	tallies, _ := r.Tallies()
	scores := make([]float64, len(tallies))
	for i, tl := range tallies {
		scores[i] = float64(tl.Correct)
	}
	median := stats.Median(scores)

	factors := []struct {
		name string
		id   string
	}{
		{"Contributed Codebase Size", quiz.BGContribSize},
		{"Involved Codebase Size", quiz.BGInvolvedSize},
		{"Area", quiz.BGArea},
		{"Software Development Role", quiz.BGRole},
		{"Formal Training", quiz.BGFormalTraining},
		{"Position", quiz.BGPosition},
		{"Contributed FP Extent", quiz.BGContribExtent},
	}
	for _, f := range factors {
		// Contingency rows are levels in first-seen order, so Cramér's
		// V sums its cells in a fixed order. counts holds one (below,
		// above) pair per level; it and the level map are sized for
		// every option plus "unanswered", so their allocations do not
		// grow with the cohort.
		ci := d.Schema.MustColumnIndex(f.id)
		nOpts := len(d.Schema.Column(ci).Options) + 1
		levels := make(map[string]int, nOpts)
		counts := make([]int, 0, 2*nOpts)
		for i, score := range scores {
			label := d.SingleLabel(ci, i)
			l, ok := levels[label]
			if !ok {
				l = len(counts) / 2
				levels[label] = l
				counts = append(counts, 0, 0)
			}
			if score > median {
				counts[2*l+1]++
			} else {
				counts[2*l]++
			}
		}
		table := make([][]int, len(counts)/2)
		for l := range table {
			table[l] = counts[2*l : 2*l+2]
		}
		v := stats.CramersV(table)
		strength := "negligible"
		switch {
		case v >= 0.5:
			strength = "strong"
		case v >= 0.3:
			strength = "moderate"
		case v >= 0.1:
			strength = "weak"
		}
		t.AddRow(f.name, report.I(len(table)), report.F2(v), strength)
	}
	t.Notes = append(t.Notes,
		"paper: several factors are somewhat predictive, none has an outsize impact — expect weak/moderate at best")
	return t
}
