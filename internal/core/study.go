// Package core orchestrates the full reproduction study: it generates
// the calibrated synthetic cohorts, grades them against the quiz's
// oracle-derived answer key, runs the statistical analysis, and renders every figure of the
// paper (Figures 1-22) as a table, alongside the paper's published
// values for comparison.
package core

import (
	"fmt"
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/stats"
	"fpstudy/internal/telemetry"
)

// Study configures one reproduction run.
type Study struct {
	// Seed drives all population generation deterministically.
	Seed int64
	// NMain is the main cohort size (the paper had 199).
	NMain int
	// NStudent is the student cohort size (the paper had 52).
	NStudent int
	// Workers bounds the parallelism of generation, grading, and
	// figure tallies; <= 0 means GOMAXPROCS. The worker count never
	// affects the produced data, only the wall-clock time.
	Workers int
}

// DefaultStudy mirrors the paper's cohort sizes.
func DefaultStudy() Study {
	return Study{Seed: 42, NMain: paperdata.NMain, NStudent: paperdata.NStudent}
}

// Results holds the generated cohorts. The main cohort is graded on
// demand (see Tallies): figures and claims read counts from the
// columns, and only the analyses need per-respondent grades.
type Results struct {
	Study Study
	// Main is the main cohort. Every figure, claim and analysis reads
	// its columns, Main.Cols.
	Main *respondent.Population
	// StudentCols is the student cohort's columnar storage.
	StudentCols *colstore.Dataset

	workers int

	gradeOnce               sync.Once
	coreTallies, optTallies []quiz.Tally

	mainSrc    query.Source
	studentSrc query.Source
	// mainScan and studentScan cache each cohort's paper plan, the
	// counts every figure and the headline claims read.
	mainScan, studentScan cohortPlan
}

// Tallies returns the main cohort's per-respondent grades: core covers
// the 15 core questions, opt the three T/F optimization questions (the
// paper's Figure 12 view). The cohort is graded on the first call,
// under the grade stage, and the grades are cached; a run that renders
// only figures and claims never grades.
func (r *Results) Tallies() (core, opt []quiz.Tally) {
	r.gradeOnce.Do(func() {
		t0 := telemetry.Start()
		g := quiz.ScoreAllColumns(r.Main.Cols, r.workers)
		telemetry.Done(telemetry.StageGrade, 0, t0, int64(r.Main.Cols.Len()), 0)
		r.coreTallies, r.optTallies = g.Core, g.OptScored
	})
	return r.coreTallies, r.optTallies
}

// MainSource returns the query-engine view of the main cohort's
// columns (built once, then cached). Every figure and headline claim
// runs through it.
func (r *Results) MainSource() query.Source {
	if r.mainSrc == nil {
		r.mainSrc = query.NewDatasetSource(r.Main.Cols)
	}
	return r.mainSrc
}

// StudentSource returns the query-engine view of the student cohort's
// columns.
func (r *Results) StudentSource() query.Source {
	if r.studentSrc == nil {
		r.studentSrc = query.NewDatasetSource(r.StudentCols)
	}
	return r.studentSrc
}

// Run executes the study's generation, sharded across the study's
// worker budget; grading waits until an analysis asks (Tallies). With
// a telemetry probe installed, the run is timed under the generate,
// generate-main and generate-students stages and advances the
// respondents counter.
func (s Study) Run() *Results {
	t0 := telemetry.Start()
	r := &Results{Study: s, workers: s.Workers}
	prog := telemetry.Installed().Counter(telemetry.MetricRespondents)
	// The two cohorts use unrelated seeds and share no mutable state,
	// so they generate concurrently; the main cohort additionally fans
	// out across the worker budget internally.
	pool := parallel.NewPool(2)
	pool.Go(func() {
		tm := telemetry.Start()
		r.Main = respondent.GenerateMainColumnar(s.Seed, s.NMain, s.Workers, nil,
			respondent.Instrumentation{Progress: prog})
		telemetry.Done(telemetry.StageGenerateMain, 0, tm, int64(s.NMain), 0)
	})
	pool.Go(func() {
		r.StudentCols = generateStudents(s)
	})
	pool.Wait()
	telemetry.Done(telemetry.StageGenerate, 0, t0, int64(s.NMain+s.NStudent), 0)
	telemetry.Installed().Counter(telemetry.MetricRuns).Inc()
	return r
}

// generateStudents generates s's student cohort under the
// generate-students stage.
func generateStudents(s Study) *colstore.Dataset {
	t0 := telemetry.Start()
	d := respondent.GenerateStudentsColumnar(s.Seed+1, s.NStudent, s.Workers, respondent.Instrumentation{})
	telemetry.Done(telemetry.StageGenerateStudents, 0, t0, int64(s.NStudent), 0)
	return d
}

// backgroundFigure describes one of Figures 1-11.
type backgroundFigure struct {
	num       int
	title     string
	question  string
	paper     []paperdata.CountEntry
	multi     bool
	paperBase int // denominator for paper percentages
}

// backgroundFigures lists Figures 1-11 in order.
var backgroundFigures = []backgroundFigure{
	{1, "Positions of participants", quiz.BGPosition, paperdata.Figure1Positions, false, paperdata.NMain},
	{2, "Areas of participants", quiz.BGArea, paperdata.Figure2Areas, false, paperdata.NMain},
	{3, "Formal Training in floating point", quiz.BGFormalTraining, paperdata.Figure3FormalTraining, false, paperdata.NMain},
	{4, "Informal Training in floating point (top 5)", quiz.BGInformal, paperdata.Figure4InformalTraining, true, paperdata.NMain},
	{5, "Software Development Roles", quiz.BGRole, paperdata.Figure5Roles, false, paperdata.NMain},
	{6, "Floating Point Language Experience (n>=5)", quiz.BGFPLanguages, paperdata.Figure6FPLanguages, true, paperdata.NMain},
	{7, "Arbitrary Precision Language Experience (n>=5)", quiz.BGArbPrec, paperdata.Figure7ArbPrec, true, paperdata.NMain},
	{8, "Contributed Codebase Sizes", quiz.BGContribSize, paperdata.Figure8ContribSize, false, paperdata.NMain},
	{9, "Contributed Codebase Floating Point Extent", quiz.BGContribExtent, paperdata.Figure9ContribExtent, false, paperdata.NMain},
	{10, "Involved Codebase Sizes", quiz.BGInvolvedSize, paperdata.Figure10InvolvedSize, false, paperdata.NMain},
	{11, "Involved Codebase Floating Point Extent", quiz.BGInvolvedExtent, paperdata.Figure11InvolvedExtent, false, paperdata.NMain},
}

// FigureBackground renders one of Figures 1-11: the generated cohort's
// distribution with the paper's values alongside. The counts come from
// the main cohort's paper plan; they follow fpsurvey -tally
// ("unanswered" bucket, one count per selected multi-choice option,
// free text counted under its label).
func (r *Results) FigureBackground(num int) report.Table {
	if num < 1 || num > len(backgroundFigures) {
		return report.Table{Title: fmt.Sprintf("unknown background figure %d", num)}
	}
	bf := backgroundFigures[num-1]
	t := report.Table{
		Title:  fmt.Sprintf("Figure %d: %s", bf.num, bf.title),
		Header: []string{"Level", "n", "%", "paper n", "paper %"},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	tal := p.background(r.MainSource(), num-1)
	n := float64(p.n)
	for _, e := range bf.paper {
		got := tal[e.Label]
		t.AddRow(e.Label,
			report.I(got), report.Pct(100*float64(got)/n),
			report.I(e.N), report.Pct(paperdata.Percent(e, bf.paperBase)))
	}
	if un := tal["unanswered"]; un > 0 && !bf.multi {
		t.AddRow("(unanswered)", report.I(un), report.Pct(100*float64(un)/n), "-", "-")
	}
	return t
}

// Figure12 renders the average quiz performance table.
func (r *Results) Figure12() report.Table {
	t := report.Table{
		Title: "Figure 12: Average (expected) performance on the core and optimization quizzes",
		Header: []string{"Quiz", "# Correct", "# Incorrect", "# Don't Know", "# No Answer", "# Chance",
			"paper Correct", "paper Chance"},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	core := meanOutcomes(p.coreField)
	opt := meanOutcomes(p.optField)
	t.AddRow("Core",
		report.F(core.Correct), report.F(core.Incorrect), report.F(core.DontKnow), report.F(core.Unanswered),
		report.F(quiz.CoreChance),
		report.F(paperdata.Figure12Core.Correct), report.F(paperdata.Figure12Core.Chance))
	t.AddRow("Optimization",
		report.F(opt.Correct), report.F(opt.Incorrect), report.F(opt.DontKnow), report.F(opt.Unanswered),
		report.F(quiz.OptChance),
		report.F(paperdata.Figure12Opt.Correct), report.F(paperdata.Figure12Opt.Chance))
	t.Notes = append(t.Notes,
		"optimization row covers the three T/F questions; Standard-compliant Level is excluded (not T/F)")
	return t
}

type meanTallyResult struct {
	Correct, Incorrect, DontKnow, Unanswered float64
}

// CoreScoreHistogram returns the distribution of core-quiz scores
// (empty when the main cohort cannot be scanned).
func (r *Results) CoreScoreHistogram() stats.IntHistogram {
	h := stats.IntHistogram{Counts: make([]int, len(quiz.CoreQuestions())+1)}
	p, err := r.mainPlan()
	if err != nil {
		return h
	}
	for score, c := range p.coreField[quiz.OutcomeCorrect] {
		h.Counts[score] = int(c)
		h.Total += int(c)
	}
	return h
}

// Figure13 renders the histogram of core quiz scores.
func (r *Results) Figure13() report.Table {
	t := report.Table{
		Title:  "Figure 13: Histogram of core quiz scores (15 questions; chance mean 7.5)",
		Header: []string{"Score", "Count", ""},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	h := r.CoreScoreHistogram()
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for score, count := range h.Counts {
		t.AddRow(report.I(score), report.I(count), report.Bar(float64(count), float64(maxC), 40))
	}
	s := stats.SummarizeCounts(p.coreField[quiz.OutcomeCorrect])
	t.Notes = append(t.Notes, fmt.Sprintf("mean %.2f, sd %.2f, median %.1f (paper mean 8.5, chance 7.5)",
		s.Mean, s.StdDev, s.Median))
	return t
}

// Figure14 renders the per-question core quiz breakdown.
func (r *Results) Figure14() report.Table {
	t := report.Table{
		Title: "Figure 14: Core quiz question breakdown",
		Header: []string{"Question", "% Correct", "% Incorrect", "% Don't Know", "% Unanswered",
			"paper %C", "flags"},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	n := float64(p.n)
	for i, q := range quiz.CoreQuestions() {
		c := int(p.coreQ[i][quiz.OutcomeCorrect])
		inc := int(p.coreQ[i][quiz.OutcomeIncorrect])
		dk := int(p.coreQ[i][quiz.OutcomeDontKnow])
		un := int(p.coreQ[i][quiz.OutcomeUnanswered])
		row := paperdata.Figure14Core[i]
		flags := ""
		pc := 100 * float64(c) / n
		if pc >= 44 && pc <= 62 {
			flags += "chance "
		}
		if float64(inc)+float64(dk) > float64(c)*2 && float64(inc) > float64(c) {
			flags += "wrong-majority"
		}
		t.AddRow(q.Label,
			report.Pct(pc),
			report.Pct(100*float64(inc)/n),
			report.Pct(100*float64(dk)/n),
			report.Pct(100*float64(un)/n),
			report.Pct(row.Correct),
			flags)
	}
	return t
}

// Figure15 renders the per-question optimization quiz breakdown.
func (r *Results) Figure15() report.Table {
	t := report.Table{
		Title: "Figure 15: Optimization quiz question breakdown",
		Header: []string{"Question", "% Correct", "% Incorrect", "% Don't Know", "% Unanswered",
			"paper %C", "paper %DK"},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	n := float64(p.n)
	for i, q := range quiz.OptQuestions() {
		c := int(p.optQ[i][quiz.OutcomeCorrect])
		inc := int(p.optQ[i][quiz.OutcomeIncorrect])
		dk := int(p.optQ[i][quiz.OutcomeDontKnow])
		un := int(p.optQ[i][quiz.OutcomeUnanswered])
		row := paperdata.Figure15Opt[i]
		t.AddRow(q.Label,
			report.Pct(100*float64(c)/n),
			report.Pct(100*float64(inc)/n),
			report.Pct(100*float64(dk)/n),
			report.Pct(100*float64(un)/n),
			report.Pct(row.Correct), report.Pct(row.DontKnow))
	}
	return t
}

// factorFigure renders a grouped-means figure (16-21) from factor f's
// per-level score histograms.
func (r *Results) factorFigure(num int, title string, f int,
	paperEffect paperdata.FactorEffect, levelOrder []string) report.Table {
	t := report.Table{
		Title:  fmt.Sprintf("Figure %d: %s", num, title),
		Header: []string{"Level", "n", "mean correct", "sd", "paper mean"},
	}
	p := figurePlan(&t, r.mainPlan)
	if p == nil {
		return t
	}
	paperMeans := map[string]float64{}
	for _, lm := range paperEffect.Means {
		paperMeans[lm.Level] = lm.Mean
	}
	for _, level := range levelOrder {
		s := stats.SummarizeCounts(p.levelScores(r.MainSource().Schema(), f, level))
		if s.N == 0 {
			continue
		}
		pm := "-"
		if v, ok := paperMeans[level]; ok {
			pm = report.F(v)
		} else if v, ok := paperMeans["Other"]; ok {
			pm = report.F(v) + " (other)"
		}
		t.AddRow(level, report.I(s.N), report.F2(s.Mean), report.F2(s.StdDev), pm)
	}
	return t
}

func labels(entries []paperdata.CountEntry) []string {
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Label)
	}
	return out
}

// Figure16 renders the effect of Contributed Codebase Size on core quiz
// scores.
func (r *Results) Figure16() report.Table {
	order := []string{
		"<100 lines of code",
		"100 to 1,000 lines of code",
		"1,001 to 10,000 lines of code",
		"10,001 to 100,000 lines of code",
		"100,001 to 1,000,000 lines of code",
		">1,000,000 lines of code",
	}
	return r.factorFigure(16, "Effect of Contributed Codebase Size on core quiz scores",
		factorContribSizeCore, paperdata.Figure16ContribSizeEffect, order)
}

// Figure17 renders the effect of Area on core quiz scores.
func (r *Results) Figure17() report.Table {
	return r.factorFigure(17, "Effect of Area on core quiz scores",
		factorAreaCore, paperdata.Figure17AreaEffect, labels(paperdata.Figure2Areas))
}

// Figure18 renders the effect of Software Development Role on core quiz
// scores.
func (r *Results) Figure18() report.Table {
	return r.factorFigure(18, "Effect of Software Development Role on core quiz scores",
		factorRoleCore, paperdata.Figure18RoleEffect, labels(paperdata.Figure5Roles))
}

// Figure19 renders the effect of Formal Training on core quiz scores.
func (r *Results) Figure19() report.Table {
	return r.factorFigure(19, "Effect of Formal Training (in floating point) on core quiz scores",
		factorTrainingCore, paperdata.Figure19TrainingEffect, labels(paperdata.Figure3FormalTraining))
}

// Figure20 renders the effect of Area on optimization quiz scores.
func (r *Results) Figure20() report.Table {
	return r.factorFigure(20, "Effect of Area on optimization quiz scores",
		factorAreaOpt, paperdata.Figure20OptAreaEffect, labels(paperdata.Figure2Areas))
}

// Figure21 renders the effect of Software Development Role on
// optimization quiz scores.
func (r *Results) Figure21() report.Table {
	return r.factorFigure(21, "Effect of Software Development Role on optimization quiz scores",
		factorRoleOpt, paperdata.Figure21OptRoleEffect, labels(paperdata.Figure5Roles))
}

// Figure22 renders the suspicion distributions for both cohorts.
func (r *Results) Figure22() report.Table {
	t := report.Table{
		Title:  "Figure 22: Distribution of suspicion for exceptional conditions (percent reporting each level)",
		Header: []string{"Group", "Condition", "1", "2", "3", "4", "5", "mean", "paper@5"},
	}
	main := figurePlan(&t, r.mainPlan)
	if main == nil {
		return t
	}
	student := figurePlan(&t, r.studentPlan)
	if student == nil {
		return t
	}
	for _, grp := range []struct {
		name  string
		plan  *paperPlan
		paper []paperdata.SuspicionDist
	}{
		{"main", main, paperdata.Figure22Main},
		{"student", student, paperdata.Figure22Student},
	} {
		for i, it := range quiz.SuspicionItems() {
			d := grp.plan.suspicion(it.ID)
			t.AddRow(grp.name, it.Condition.String(),
				report.Pct(d.Percent[0]), report.Pct(d.Percent[1]), report.Pct(d.Percent[2]),
				report.Pct(d.Percent[3]), report.Pct(d.Percent[4]),
				report.F2(d.MeanLevel()), report.Pct(grp.paper[i].Percent[4]))
		}
	}
	t.Notes = append(t.Notes,
		"ground-truth ranking (monitor): Invalid(5) > Overflow(4) > Underflow(2) = Denorm(2) > Precision(1)")
	return t
}

// Figure renders any figure 1-22 by number.
func (r *Results) Figure(num int) report.Table {
	switch {
	case num >= 1 && num <= 11:
		return r.FigureBackground(num)
	case num == 12:
		return r.Figure12()
	case num == 13:
		return r.Figure13()
	case num == 14:
		return r.Figure14()
	case num == 15:
		return r.Figure15()
	case num == 16:
		return r.Figure16()
	case num == 17:
		return r.Figure17()
	case num == 18:
		return r.Figure18()
	case num == 19:
		return r.Figure19()
	case num == 20:
		return r.Figure20()
	case num == 21:
		return r.Figure21()
	case num == 22:
		return r.Figure22()
	}
	return report.Table{Title: fmt.Sprintf("unknown figure %d", num)}
}

// AllFigures renders every figure in order.
func (r *Results) AllFigures() []report.Table {
	out := make([]report.Table, 0, 22)
	for i := 1; i <= 22; i++ {
		out = append(out, r.Figure(i))
	}
	return out
}
