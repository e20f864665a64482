package core

import (
	"fmt"

	"fpstudy/internal/report"
	"fpstudy/internal/stats"
)

// ConfidenceReport quantifies the paper's most pointed finding: on the
// core quiz, participants "do little better than chance, yet are
// confident." Confidence is operationalized as willingness to commit
// (answering true/false rather than "don't know"); accuracy is the
// correct fraction among committed answers. A calibrated population
// would show accuracy tracking confidence; the paper's population is
// confident (85%+ commit) but barely above coin-flip accuracy.
func (r *Results) ConfidenceReport() report.Table {
	t := report.Table{
		Title:  "Confidence vs accuracy on the core quiz (the \"yet are confident\" analysis)",
		Header: []string{"Confidence band", "n", "mean committed", "accuracy when committed", "vs coin flip"},
	}
	type row struct {
		committed float64 // fraction of 15 answered T/F
		accuracy  float64 // correct / committed
	}
	var rows []row
	tallies, _ := r.Tallies()
	for _, tl := range tallies {
		committed := tl.Correct + tl.Incorrect
		if committed == 0 {
			continue
		}
		rows = append(rows, row{
			committed: float64(committed) / 15,
			accuracy:  float64(tl.Correct) / float64(committed),
		})
	}
	bands := []struct {
		name   string
		lo, hi float64
	}{
		{"low (<60% answered)", 0, 0.6},
		{"medium (60-85%)", 0.6, 0.85},
		{"high (>=85%)", 0.85, 1.01},
	}
	for _, b := range bands {
		var acc, com []float64
		for _, x := range rows {
			if x.committed >= b.lo && x.committed < b.hi {
				acc = append(acc, x.accuracy)
				com = append(com, x.committed)
			}
		}
		delta := stats.Mean(acc) - 0.5
		t.AddRow(b.name, report.I(len(acc)),
			report.Pct(100*stats.Mean(com)), report.Pct(100*stats.Mean(acc)),
			fmt.Sprintf("%+.1f pts", 100*delta))
	}
	// Overall calibration summary.
	var allAcc, allCom []float64
	for _, x := range rows {
		allAcc = append(allAcc, x.accuracy)
		allCom = append(allCom, x.committed)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"overall: %.0f%% of questions answered with commitment, %.0f%% of those correct (coin flip: 50%%)",
		100*stats.Mean(allCom), 100*stats.Mean(allAcc)))
	corr := stats.Pearson(allCom, allAcc)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"confidence-accuracy correlation r = %.2f (calibrated populations show strongly positive r)", corr))
	return t
}

// OverconfidenceIndex is mean(confidence) - mean(accuracy among
// committed answers), in [-1, 1]. Positive values mean the population
// commits more than its accuracy warrants.
func (r *Results) OverconfidenceIndex() float64 {
	var com, acc []float64
	tallies, _ := r.Tallies()
	for _, tl := range tallies {
		committed := tl.Correct + tl.Incorrect
		if committed == 0 {
			continue
		}
		com = append(com, float64(committed)/15)
		acc = append(acc, float64(tl.Correct)/float64(committed))
	}
	return stats.Mean(com) - stats.Mean(acc)
}

// OptHumilityIndex is the analogous quantity for the optimization
// quiz, where the paper found appropriate humility: the fraction of
// scored questions punted with "don't know."
func (r *Results) OptHumilityIndex() float64 {
	var dk []float64
	_, tallies := r.Tallies()
	for _, tl := range tallies {
		total := tl.Total()
		if total == 0 {
			continue
		}
		dk = append(dk, float64(tl.DontKnow)/float64(total))
	}
	return stats.Mean(dk)
}
