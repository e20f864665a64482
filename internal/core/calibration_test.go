package core

import (
	"reflect"
	"strings"
	"testing"

	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
)

func TestCalibrationReport(t *testing.T) {
	tab := paperResults.CalibrationReport()
	if len(tab.Rows) != 15 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "bootstrap CI") {
		t.Fatalf("missing CI note:\n%s", s)
	}
	// At n=199 with the calibrated model, the bulk of questions must
	// sit inside the 5% chi-square band.
	off := strings.Count(s, "  off")
	if off > 3 {
		t.Errorf("%d questions outside the chi-square band:\n%s", off, s)
	}
	// Paper mean inside the bootstrap CI for the default seed.
	if !strings.Contains(s, "paper mean inside CI: true") {
		t.Errorf("paper mean outside the CI:\n%s", s)
	}
}

func TestFactorAssociation(t *testing.T) {
	tab := bigResults.FactorAssociation()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	s := tab.String()
	// The paper's finding: no factor is strong.
	if strings.Contains(s, "strong") && !strings.Contains(s, "none has an outsize impact") {
		// "strong" only appears in a row (not the note) if some factor
		// exceeded 0.5 — which contradicts the paper's finding.
		for _, row := range tab.Rows {
			if row[3] == "strong" {
				t.Errorf("factor %s unexpectedly strong (V=%s)", row[0], row[2])
			}
		}
	}
	// Codebase size should be at least weakly associated.
	for _, row := range tab.Rows {
		if row[0] == "Contributed Codebase Size" && row[3] == "negligible" {
			t.Errorf("codebase size should not be negligible: V=%s", row[2])
		}
	}
}

// TestFactorTableMatchesLabelKeyed checks the code-indexed contingency
// tables against tables keyed by each respondent's label, on the JSON
// cohort with free-text answers whose position column also holds a
// typed "Faculty", an option label: the spill must share the option's
// row, as the label-keyed table counts it, and no other.
func TestFactorTableMatchesLabelKeyed(t *testing.T) {
	factors := []string{quiz.BGContribSize, quiz.BGInvolvedSize, quiz.BGArea, quiz.BGRole,
		quiz.BGFormalTraining, quiz.BGPosition, quiz.BGContribExtent}
	for _, n := range []int{40, query.BlockRows + 108} {
		d := outsideCohort(t, n)
		r, err := Study{Seed: 42, NStudent: 52, Workers: 1}.ResultsFromColumns(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]float64, n)
		for i, c := range r.grades().coreCorrect {
			scores[i] = float64(c)
		}
		median := stats.Median(scores)
		spills := 0
		for _, id := range factors {
			ci := d.Schema.MustColumnIndex(id)
			levels := map[string]int{}
			var want [][]int
			for i, score := range scores {
				if d.SingleCode(ci, i) < 0 {
					spills++
				}
				label := d.SingleLabel(ci, i)
				l, ok := levels[label]
				if !ok {
					l = len(want)
					levels[label] = l
					want = append(want, []int{0, 0})
				}
				if score > median {
					want[l][1]++
				} else {
					want[l][0]++
				}
			}
			if got := factorTable(d, ci, scores, median); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %s: table %v, want %v", n, id, got, want)
			}
		}
		if spills == 0 {
			t.Fatalf("n=%d: cohort has no free-text factor answers", n)
		}
	}
}
