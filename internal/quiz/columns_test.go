package quiz

import (
	"testing"

	"fpstudy/internal/colstore"
)

// columnarFixture builds a small columnar cohort by hand: respondent 0
// answers everything correctly, respondent 1 mixes wrong / don't know /
// unanswered, respondent 2 answers nothing.
func columnarFixture(t testing.TB) *colstore.Dataset {
	s := Columns()
	d := s.NewDataset("1.0", 3)
	for _, q := range CoreQuestions() {
		ci := s.MustColumnIndex(q.ID)
		d.SetTF(ci, 0, tfCorrectCode(CoreAnswer(q.ID)))
		d.SetTF(ci, 1, colstore.TFDontKnow)
	}
	for _, q := range OptQuestions() {
		ci := s.MustColumnIndex(q.ID)
		if q.IsTrueFalse() {
			correct := tfCorrectCode(OptAnswer(q.ID))
			d.SetTF(ci, 0, correct)
			wrong := colstore.TFTrue
			if correct == colstore.TFTrue {
				wrong = colstore.TFFalse
			}
			d.SetTF(ci, 1, wrong)
		} else {
			d.SetSingle(ci, 0, s.Column(ci).MustOptionCode(OptAnswer(q.ID)))
			// Respondent 1 leaves the choice question unanswered (0).
		}
	}
	return d
}

// TestScoreColumnsMatchesRowScoring grades the fixture both ways —
// columnar and via the materialized row view — and requires identical
// tallies.
func TestScoreColumnsMatchesRowScoring(t *testing.T) {
	d := columnarFixture(t)
	rows := d.ToSurvey()
	for i := 0; i < d.Len(); i++ {
		core, optScored, optAll := ScoreColumnsAt(d, i)
		r := rows.Responses[i]
		wantCore, wantScored, wantAll := ScoreCore(r), ScoreOptScored(r), ScoreOpt(r)
		if core != wantCore || optScored != wantScored || optAll != wantAll {
			t.Fatalf("respondent %d: columnar (%+v,%+v,%+v) != row (%+v,%+v,%+v)",
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

// TestClassifyAtMatchesRows cross-checks the outcome tables against
// the row classifier for every question slot.
func TestClassifyAtMatchesRows(t *testing.T) {
	d := columnarFixture(t)
	rows := d.ToSurvey()
	coreTabs, optTabs := OutcomeTables(d.Schema)
	byTable := func(tab *OutcomeTable, i int) PerQuestionOutcome {
		if tab.TF {
			return tab.ByCode[d.TF(tab.Col, i)]
		}
		return tab.Outcome(d.SingleCode(tab.Col, i))
	}
	for i := 0; i < d.Len(); i++ {
		r := rows.Responses[i]
		for k, q := range CoreQuestions() {
			want := ClassifyCore(r, q)
			if got := byTable(&coreTabs[k], i); got != want {
				t.Fatalf("respondent %d core[%d]=%s: table %v != %v", i, k, q.ID, got, want)
			}
		}
		for k, q := range OptQuestions() {
			want := ClassifyOpt(r, q)
			if got := byTable(&optTabs[k], i); got != want {
				t.Fatalf("respondent %d opt[%d]=%s: table %v != %v", i, k, q.ID, got, want)
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
