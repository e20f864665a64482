package core

import (
	"fmt"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/telemetry"
)

// ResultsFromColumns builds a Results over an already-loaded main
// cohort instead of generating one: every figure, claim and analysis
// then reads the columns directly, and grades them on demand, exactly
// as after Run. The dataset must use the quiz schema (load it with
// colstore.LoadFile(quiz.Columns(), ...)) so the cached grading tables
// apply. When students is nil the student cohort is regenerated from
// s.Seed+1 / s.NStudent — the same seed split Run uses — so a run at
// the generating seed reproduces Run bit-for-bit.
func (s Study) ResultsFromColumns(main, students *colstore.Dataset) (*Results, error) {
	if main.Schema != quiz.Columns() {
		return nil, fmt.Errorf("core: dataset schema is not the quiz instrument")
	}
	s.NMain = main.Len()
	r := &Results{Study: s, Main: &respondent.Population{Cols: main}, workers: s.Workers}
	if students == nil {
		students = generateStudents(s)
	} else {
		if students.Schema != quiz.Columns() {
			return nil, fmt.Errorf("core: student dataset schema is not the quiz instrument")
		}
		s.NStudent = students.Len()
		r.Study.NStudent = s.NStudent
	}
	r.StudentCols = students
	telemetry.Installed().Counter(telemetry.MetricRuns).Inc()
	return r, nil
}
