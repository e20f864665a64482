package quiz

import (
	"math/rand"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/survey"
)

// columnarFixture builds a small columnar cohort by hand: respondent 0
// answers everything correctly, respondent 1 mixes wrong / don't know /
// unanswered, respondent 2 answers nothing.
func columnarFixture(t testing.TB) *colstore.Dataset {
	s := Columns()
	d := s.NewDataset("1.0", 3)
	for _, q := range CoreQuestions() {
		ci := s.MustColumnIndex(q.ID)
		d.SetTF(ci, 0, tfCorrectCode(KeyAnswer(q.ID)))
		d.SetTF(ci, 1, colstore.TFDontKnow)
	}
	for _, q := range OptQuestions() {
		ci := s.MustColumnIndex(q.ID)
		if q.IsTrueFalse() {
			correct := tfCorrectCode(KeyAnswer(q.ID))
			d.SetTF(ci, 0, correct)
			wrong := colstore.TFTrue
			if correct == colstore.TFTrue {
				wrong = colstore.TFFalse
			}
			d.SetTF(ci, 1, wrong)
		} else {
			d.SetSingle(ci, 0, s.Column(ci).MustOptionCode(KeyAnswer(q.ID)))
			// Respondent 1 leaves the choice question unanswered (0).
		}
	}
	return d
}

// randomQuizCohort is the fixture's three respondents followed by n
// respondents whose quiz cells hold seeded-random codes: every
// true/false code, every Level option, and free-text Level answers.
func randomQuizCohort(t testing.TB, n int) *colstore.Dataset {
	t.Helper()
	fixture := columnarFixture(t)
	s := fixture.Schema
	d := s.NewDataset("1.0", 3+n)
	rng := rand.New(rand.NewSource(12))
	for _, id := range quizIDs() {
		ci := s.MustColumnIndex(id)
		col := s.Column(ci)
		for i := 0; i < d.Len(); i++ {
			switch {
			case col.Kind == survey.TrueFalse && i < 3:
				d.SetTF(ci, i, fixture.TF(ci, i))
			case col.Kind == survey.TrueFalse:
				d.SetTF(ci, i, uint8(rng.Intn(4)))
			case i < 3:
				d.SetSingle(ci, i, fixture.SingleCode(ci, i))
			default:
				a := survey.Answer{}
				if k := rng.Intn(len(col.Options) + 2); k < len(col.Options) {
					a.Choice = col.Options[k]
				} else if k == len(col.Options) {
					a.Choice = "-Ofast"
				}
				if err := d.SetAnswer(ci, i, a); err != nil {
					t.Fatalf("SetAnswer: %v", err)
				}
			}
		}
	}
	return d
}

// quizIDs lists the core and then the optimization question IDs, in
// paper order.
func quizIDs() []string {
	var ids []string
	for _, q := range CoreQuestions() {
		ids = append(ids, q.ID)
	}
	for _, q := range OptQuestions() {
		ids = append(ids, q.ID)
	}
	return ids
}

// referenceOutcome grades respondent i's answer to question id the
// plain way, apart from the grading tables: it reads the cell's label
// ("true", "false", "dontknow", a Level option or free text) and
// compares it with the answer key's answer.
func referenceOutcome(d *colstore.Dataset, id string, i int) PerQuestionOutcome {
	ci := d.Schema.MustColumnIndex(id)
	label := d.SingleLabel
	if d.Schema.Column(ci).Kind == survey.TrueFalse {
		label = func(ci, i int) string {
			return [...]string{"", survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}[d.TF(ci, i)]
		}
	}
	key, _ := KeyFor(id)
	switch label(ci, i) {
	case "":
		return OutcomeUnanswered
	case survey.AnswerDontKnow:
		return OutcomeDontKnow
	case key.Answer:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

// count adds one outcome to a tally.
func count(t *Tally, o PerQuestionOutcome) {
	switch o {
	case OutcomeCorrect:
		t.Correct++
	case OutcomeIncorrect:
		t.Incorrect++
	case OutcomeDontKnow:
		t.DontKnow++
	default:
		t.Unanswered++
	}
}

// TestScoreColumnsMatchesReference grades a random cohort with
// ScoreColumnsAt and with referenceOutcome, question by question, and
// requires identical tallies.
func TestScoreColumnsMatchesReference(t *testing.T) {
	d := randomQuizCohort(t, 200)
	for i := 0; i < d.Len(); i++ {
		var wantCore, wantScored, wantAll Tally
		for _, q := range CoreQuestions() {
			count(&wantCore, referenceOutcome(d, q.ID, i))
		}
		for _, q := range OptQuestions() {
			o := referenceOutcome(d, q.ID, i)
			count(&wantAll, o)
			if q.IsTrueFalse() {
				count(&wantScored, o)
			}
		}
		core, optScored, optAll := ScoreColumnsAt(d, i)
		if core != wantCore || optScored != wantScored || optAll != wantAll {
			t.Fatalf("respondent %d: columnar (%+v,%+v,%+v) != reference (%+v,%+v,%+v)",
				i, core, optScored, optAll, wantCore, wantScored, wantAll)
		}
	}
}

// TestScoreColumnsFixtureValues pins the fixture's expected tallies
// directly, independent of the row scorer.
func TestScoreColumnsFixtureValues(t *testing.T) {
	d := columnarFixture(t)
	core, _, optAll := ScoreColumnsAt(d, 0)
	if core.Correct != len(CoreQuestions()) || optAll.Correct != len(OptQuestions()) {
		t.Fatalf("perfect respondent scored %d/%d core, %d/%d opt",
			core.Correct, len(CoreQuestions()), optAll.Correct, len(OptQuestions()))
	}
	core, _, optAll = ScoreColumnsAt(d, 2)
	if core.Unanswered != len(CoreQuestions()) || optAll.Unanswered != len(OptQuestions()) {
		t.Fatalf("silent respondent tallied %+v / %+v", core, optAll)
	}
	core, optScored, optAll := ScoreColumnsAt(d, 1)
	if core.DontKnow != len(CoreQuestions()) {
		t.Fatalf("respondent 1 core = %+v, want all don't-know", core)
	}
	if optScored.Incorrect != 3 || optAll.Unanswered != 1 {
		t.Fatalf("respondent 1 opt = %+v / %+v", optScored, optAll)
	}
}

// TestClassifyAtMatchesReference cross-checks the outcome tables
// against referenceOutcome for every question slot of a random cohort.
func TestClassifyAtMatchesReference(t *testing.T) {
	d := randomQuizCohort(t, 200)
	coreTabs, optTabs := OutcomeTables(d.Schema)
	byTable := func(tab *OutcomeTable, i int) PerQuestionOutcome {
		if tab.TF {
			return tab.ByCode[d.TF(tab.Col, i)]
		}
		return tab.Outcome(d.SingleCode(tab.Col, i))
	}
	tabs := append(append([]OutcomeTable{}, coreTabs...), optTabs...)
	for i := 0; i < d.Len(); i++ {
		for k, id := range quizIDs() {
			if got, want := byTable(&tabs[k], i), referenceOutcome(d, id, i); got != want {
				t.Fatalf("respondent %d %s: table %v != reference %v", i, id, got, want)
			}
		}
	}
	if got := optTabs[2].Outcome(-1); got != OutcomeIncorrect {
		t.Fatalf("free-text Level answer classified %v, want incorrect", got)
	}
}

// TestScoreColumnsZeroAlloc pins the zero-allocation contract of
// columnar grading.
func TestScoreColumnsZeroAlloc(t *testing.T) {
	d := columnarFixture(t)
	ScoreTableFor(d.Schema) // warm the one-time table build
	var sink Tally
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < d.Len(); i++ {
			core, _, optAll := ScoreColumnsAt(d, i)
			sink.Correct += core.Correct + optAll.Correct
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreColumnsAt allocates %.1f allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestScoreAllColumnsWorkersInvariant checks grading is independent of
// the worker count.
func TestScoreAllColumnsWorkersInvariant(t *testing.T) {
	d := columnarFixture(t)
	base := ScoreAllColumns(d, 1)
	for _, w := range []int{2, 4, 0} {
		g := ScoreAllColumns(d, w)
		for i := 0; i < d.Len(); i++ {
			if g.Core[i] != base.Core[i] || g.OptScored[i] != base.OptScored[i] ||
				g.OptAll[i] != base.OptAll[i] {
				t.Fatalf("workers=%d diverges at respondent %d", w, i)
			}
		}
	}
}

// BenchmarkScoreColumns times columnar grading of one respondent.
func BenchmarkScoreColumns(b *testing.B) {
	d := columnarFixture(b)
	ScoreTableFor(d.Schema)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ScoreColumnsAt(d, n%d.Len())
	}
}

// TestScoreTableCachedOncePerProcess pins the table-cache contract:
// the canonical schema's grading table is one shared instance.
func TestScoreTableCachedOncePerProcess(t *testing.T) {
	a := ScoreTableFor(Columns())
	b := ScoreTableFor(Columns())
	if a != b {
		t.Fatal("canonical ScoreTable not cached: distinct instances returned")
	}
}
