package core

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
)

// emptyCohorts returns results over an empty main cohort, both from an
// n=0 Study.Run and from a 0-row FPDS file loaded back.
func emptyCohorts(t *testing.T) map[string]*Results {
	t.Helper()
	s := Study{Seed: 42}
	run := s.Run()
	var bin bytes.Buffer
	if err := run.Main.Cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	cols, _, err := colstore.Load(quiz.Columns(), bytes.NewReader(bin.Bytes()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	loaded, err := s.ResultsFromColumns(cols, nil)
	if err != nil {
		t.Fatalf("ResultsFromColumns: %v", err)
	}
	return map[string]*Results{"Study.Run": run, "ResultsFromColumns": loaded}
}

// checkNoRespondents asserts that an analysis of an empty cohort
// renders the no-respondents note and neither a statistic nor a
// verdict.
func checkNoRespondents(t *testing.T, analysis func(*Results) report.Table) {
	t.Helper()
	for path, r := range emptyCohorts(t) {
		tab := analysis(r)
		s := tab.String()
		if len(tab.Rows) != 0 {
			t.Errorf("%s: %d rows on an empty cohort:\n%s", path, len(tab.Rows), s)
		}
		if len(tab.Notes) != 1 || tab.Notes[0] != noRespondents {
			t.Errorf("%s: notes %q, want only %q", path, tab.Notes, noRespondents)
		}
		for _, bad := range []string{"NaN", " ok", "15/15", "negligible", "effect"} {
			if strings.Contains(s, bad) {
				t.Errorf("%s: empty-cohort output contains %q:\n%s", path, bad, s)
			}
		}
	}
}

func TestItemAnalysisEmptyCohort(t *testing.T) {
	checkNoRespondents(t, (*Results).ItemAnalysis)
}

func TestCalibrationReportEmptyCohort(t *testing.T) {
	checkNoRespondents(t, (*Results).CalibrationReport)
}

func TestFactorAssociationEmptyCohort(t *testing.T) {
	checkNoRespondents(t, (*Results).FactorAssociation)
}

func TestInterventionReportEmptyCohort(t *testing.T) {
	checkNoRespondents(t, (*Results).InterventionReport)
}

// TestAnalysesAllocsFlat guards the columnar analyses against a
// returning per-respondent row view: their allocation counts must not
// grow from n=2,000 to n=20,000.
func TestAnalysesAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("20000-respondent study; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's runtime makes allocation counts noisy")
	}
	small := Study{Seed: 42, NMain: 2000}.Run()
	big := Study{Seed: 42, NMain: 20000}.Run()
	// A collection cycle during the measurement adds stray runtime
	// allocations; with the collector off the counts are exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, a := range []struct {
		name string
		run  func(*Results) report.Table
	}{
		{"ItemAnalysis", (*Results).ItemAnalysis},
		{"CalibrationReport", (*Results).CalibrationReport},
		{"FactorAssociation", (*Results).FactorAssociation},
	} {
		ns := testing.AllocsPerRun(1, func() { a.run(small) })
		nb := testing.AllocsPerRun(1, func() { a.run(big) })
		if nb > ns {
			t.Errorf("%s: %.0f allocations at n=20000, %.0f at n=2000", a.name, nb, ns)
		}
	}
}

// BenchmarkAnalysisReports times each analysis fpreport renders besides
// the figures, on a 10,000-respondent cohort.
func BenchmarkAnalysisReports(b *testing.B) {
	r := Study{Seed: 42, NMain: 10000}.Run()
	for _, a := range []struct {
		name string
		run  func(*Results) report.Table
	}{
		{"items", (*Results).ItemAnalysis},
		{"calibration", (*Results).CalibrationReport},
		{"association", (*Results).FactorAssociation},
		{"intervention", (*Results).InterventionReport},
		{"confidence", (*Results).ConfidenceReport},
	} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tab := a.run(r); len(tab.Rows) == 0 {
					b.Fatalf("%s rendered no rows", a.name)
				}
			}
		})
	}
}
