package core

import (
	"fmt"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
)

// ResultsFromColumns builds a Results over an already-loaded main
// cohort instead of generating one: it grades the columns and leaves
// figure tallies to read them directly, exactly like a ColumnarOnly
// Run. The dataset must use the quiz schema (load it with
// colstore.LoadFile(quiz.Columns(), ...)) so the cached grading tables
// apply. When students is nil the student cohort is regenerated from
// s.Seed+1 / s.NStudent — the same seed split Run uses — so a run at
// the generating seed reproduces Run bit-for-bit.
func (s Study) ResultsFromColumns(main, students *colstore.Dataset) (*Results, error) {
	if main.Schema != quiz.Columns() {
		return nil, fmt.Errorf("core: dataset schema is not the quiz instrument")
	}
	s.NMain = main.Len()
	r := &Results{
		Study:      s,
		Main:       &respondent.Population{Cols: main},
		instrument: quiz.Instrument(),
		workers:    s.Workers,
		telemetry:  s.Telemetry,
	}
	root := s.Telemetry.StartSpan("run")
	if students == nil {
		sp := root.StartChild("generate-students")
		students = respondent.GenerateStudentsColumnar(s.Seed+1, s.NStudent, s.Workers,
			respondent.Instrumentation{Span: sp})
		sp.AddItems(int64(s.NStudent))
		sp.End()
	} else {
		if students.Schema != quiz.Columns() {
			return nil, fmt.Errorf("core: student dataset schema is not the quiz instrument")
		}
		s.NStudent = students.Len()
		r.Study.NStudent = s.NStudent
	}
	r.StudentCols = students
	gsp := root.StartChild("grade")
	g := quiz.ScoreAllColumns(main, s.Workers)
	gsp.AddItems(int64(main.Len()))
	gsp.End()
	r.CoreTallies, r.OptTallies, r.OptAllTallies = g.Core, g.OptScored, g.OptAll
	root.AddItems(int64(main.Len() + students.Len()))
	root.End()
	s.Telemetry.Registry().Counter(MetricRuns).Inc()
	return r, nil
}
