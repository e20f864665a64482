package core

import (
	"fmt"

	"fpstudy/internal/colstore"
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
	tabs, _ := quiz.OutcomeTables(d.Schema)
	fails := 0
	for i, q := range quiz.CoreQuestions() {
		row := paperdata.Figure14Core[i]
		counts := countOutcomes(&tabs[i], d.RawU8(tabs[i].Col)[:n])
		observed := []int{
			counts[quiz.OutcomeCorrect], counts[quiz.OutcomeIncorrect],
			counts[quiz.OutcomeDontKnow], counts[quiz.OutcomeUnanswered],
		}
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

	// Bootstrap CI on the headline mean. Core scores are 0..15, so
	// they fit a byte, and their integer sum is exact: the mean below
	// is bit-identical to a float sum over the same scores.
	scores := r.grades().coreCorrect
	lo, hi := stats.BootstrapMeanCI(scores, 0.95, 2000, r.Study.Seed, r.workers)
	t.Notes = append(t.Notes,
		fmt.Sprintf("core mean %.2f, 95%% bootstrap CI [%.2f, %.2f]; paper 8.5; chance 7.5",
			meanCorrect(scores), lo, hi))
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
	coreCorrect := r.grades().coreCorrect
	scores := make([]float64, len(coreCorrect))
	for i, c := range coreCorrect {
		scores[i] = float64(c)
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
		table := factorTable(d, d.Schema.MustColumnIndex(f.id), scores, median)
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

// factorTable is the contingency table of single-choice column ci
// against the above/below-median split of scores: one (below, above)
// row per answer label, in first-seen order, so Cramér's V sums its
// cells in a fixed order. Rows are found by the cell's code, through a
// slot per option code (0 for unanswered) followed by a slot per arena
// string; the label is resolved once per slot, on its first sighting,
// so a free-text answer whose text equals an option label lands in that
// option's row, as it would if rows were keyed by label.
func factorTable(d *colstore.Dataset, ci int, scores []float64, median float64) [][]int {
	nOpts := len(d.Schema.Column(ci).Options) + 1
	slots := make([]int32, nOpts+len(d.ArenaStrings()))
	for k := range slots {
		slots[k] = -1
	}
	levels := make(map[string]int32, nOpts)
	counts := make([]int, 0, 2*nOpts)
	codes := d.RawI32(ci)[:len(scores)]
	for i, c := range codes {
		slot := int(c)
		if c < 0 {
			slot = nOpts - 1 - int(c)
		}
		l := slots[slot]
		if l < 0 {
			label := d.SingleLabel(ci, i)
			var ok bool
			if l, ok = levels[label]; !ok {
				l = int32(len(counts) / 2)
				levels[label] = l
				counts = append(counts, 0, 0)
			}
			slots[slot] = l
		}
		if scores[i] > median {
			counts[2*l+1]++
		} else {
			counts[2*l]++
		}
	}
	table := make([][]int, len(counts)/2)
	for l := range table {
		table[l] = counts[2*l : 2*l+2]
	}
	return table
}
