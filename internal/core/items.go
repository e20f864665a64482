package core

import (
	"fmt"

	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/stats"
)

// ItemAnalysis runs classical test-theory item analysis on the core
// quiz: per-question difficulty (fraction correct), discrimination
// (point-biserial correlation of the item with the rest-of-test score),
// and the don't-know rate. The paper's chance-level questions should
// appear as hard items; well-understood properties (Distributivity,
// Ordering) as easy ones; a sound instrument shows positive
// discrimination nearly everywhere.
func (r *Results) ItemAnalysis() report.Table {
	t := report.Table{
		Title:  "Item analysis of the core quiz (classical test theory)",
		Header: []string{"Question", "difficulty (pCorrect)", "discrimination (r_pb)", "DK rate", "grade"},
	}
	d := r.Main.Cols
	n := d.Len()
	if n == 0 {
		t.Notes = append(t.Notes, noRespondents)
		return t
	}
	qs := quiz.CoreQuestions()
	tabs, _ := quiz.OutcomeTables(d.Schema)

	// Per-respondent per-item correctness and total scores, one core
	// column at a time through the question's outcome table.
	// correct[i*n+j] is 1 when respondent j got question i right.
	correct := make([]int, len(qs)*n)
	totals := make([]float64, n)
	dkCount := make([]int, len(qs))
	for i := range qs {
		tab := &tabs[i]
		var isCorrect [256]int
		for code, o := range tab.ByCode {
			if o == quiz.OutcomeCorrect {
				isCorrect[code] = 1
			}
		}
		col := d.RawU8(tab.Col)[:n]
		ci := correct[i*n : (i+1)*n]
		for j, code := range col {
			c := isCorrect[code]
			ci[j] = c
			totals[j] += float64(c)
		}
		dkCount[i] = countOutcomes(tab, col)[quiz.OutcomeDontKnow]
	}

	rest := make([]float64, n)
	for i, q := range qs {
		ci := correct[i*n : (i+1)*n]
		diff := 0.0
		for _, c := range ci {
			diff += float64(c)
		}
		diff /= float64(n)
		// Rest score: total minus this item, to avoid part-whole
		// inflation.
		for j := range rest {
			rest[j] = totals[j] - float64(ci[j])
		}
		disc := stats.PointBiserial(ci, rest)
		grade := "ok"
		switch {
		case disc < 0.05:
			grade = "non-discriminating"
		case diff < 0.25:
			grade = "very hard"
		case diff > 0.9:
			grade = "very easy"
		}
		t.AddRow(q.Label, report.F2(diff), report.F2(disc),
			report.Pct(100*float64(dkCount[i])/float64(n)), grade)
	}
	t.Notes = append(t.Notes,
		"difficulty ~0.5 with positive discrimination = informative item; the paper's chance-level questions cluster there")
	return t
}

// countOutcomes returns how many cells of a T/F column fall in each
// outcome (indexed by quiz.PerQuestionOutcome): a histogram of the
// codes, folded through the question's outcome table.
func countOutcomes(tab *quiz.OutcomeTable, col []uint8) (counts [4]int) {
	var byCode [256]int
	for _, code := range col {
		byCode[code]++
	}
	for code, c := range byCode {
		counts[tab.ByCode[code]] += c
	}
	return counts
}

// noRespondents is the note an analysis renders, in place of any
// statistic or verdict, when the main cohort is empty.
const noRespondents = "n=0: no respondents, so no statistics and no verdict"

// TrainingIntervention is the policy experiment behind the paper's
// "develop effective training" action: re-run the study with every
// respondent's formal training upgraded to the given level and report
// the predicted score change under the fitted model.
//
// The paper (and this model, calibrated to it) predicts a small gain —
// quantifying exactly why the authors argue the community "has not
// found the right training approach yet".
type TrainingIntervention struct {
	Level       string
	BaseMean    float64
	TreatedMean float64
	Gain        float64
}

// trainingLevels are the formal-training levels the policy experiment
// forces, in table order.
var trainingLevels = []string{
	"None",
	"One or more lectures in course",
	"One or more weeks within a course",
	"One or more courses",
}

// trainingInterventions scores, for each level, the study's cohort with
// everyone's formal training forced to that level. The question models
// are fitted once, on the untreated cohort, and every level is scored
// from the same draws (respondent.TreatedCoreCorrect); no treated
// cohort is generated or graded.
func (r *Results) trainingInterventions(levels []string) []TrainingIntervention {
	base := meanCorrect(r.grades().coreCorrect)
	overrides := make([]func(*respondent.Profile), len(levels))
	for k, level := range levels {
		overrides[k] = func(p *respondent.Profile) { p.FormalTraining = level }
	}
	n := r.Study.NMain
	counts := respondent.TreatedCoreCorrect(r.Study.Seed, n, r.workers, overrides)
	out := make([]TrainingIntervention, len(levels))
	for k, c := range counts {
		treated := 0.0
		if n > 0 {
			treated = float64(c) / float64(n)
		}
		out[k] = TrainingIntervention{
			Level:       levels[k],
			BaseMean:    base,
			TreatedMean: treated,
			Gain:        treated - base,
		}
	}
	return out
}

// meanCorrect returns the mean of per-respondent scores (0 for none).
// Scores are small integers, so the sum is exact and the mean is the
// same at any worker count.
func meanCorrect(scores []uint8) float64 {
	if len(scores) == 0 {
		return 0
	}
	sum := 0
	for _, c := range scores {
		sum += int(c)
	}
	return float64(sum) / float64(len(scores))
}

// InterventionReport renders the what-if table across training levels.
func (r *Results) InterventionReport() report.Table {
	t := report.Table{
		Title:  "Policy experiment: force everyone's formal floating point training to a level",
		Header: []string{"Forced level", "mean core score", "gain vs observed", "verdict"},
	}
	if r.Main.Cols.Len() == 0 {
		t.Notes = append(t.Notes, noRespondents)
		return t
	}
	ivs := r.trainingInterventions(trainingLevels)
	for _, iv := range ivs {
		verdict := "small effect"
		if iv.Gain > 1.5 {
			verdict = "large effect"
		}
		if iv.Gain < -1.5 {
			verdict = "large harm"
		}
		t.AddRow(iv.Level, report.F2(iv.TreatedMean), fmt.Sprintf("%+.2f", iv.Gain), verdict)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("observed mean: %.2f; the paper: training as currently delivered buys ~1 question at best", ivs[0].BaseMean))
	return t
}
