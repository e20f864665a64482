package quiz

import (
	"math/rand"
	"slices"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
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

// tally counts outcomes, indexed by PerQuestionOutcome.
type tally [4]int

// outcomeAt classifies respondent i's answer to a table's question.
func outcomeAt(d *colstore.Dataset, tab *OutcomeTable, i int) PerQuestionOutcome {
	if tab.TF {
		return tab.ByCode[d.TF(tab.Col, i)]
	}
	return tab.Outcome(d.SingleCode(tab.Col, i))
}

// tallyAt counts respondent i's outcomes through the outcome tables:
// on the core quiz, on the three T/F optimization questions and on all
// four.
func tallyAt(d *colstore.Dataset, i int) (core, optScored, optAll tally) {
	coreTabs, optTabs := OutcomeTables(d.Schema)
	for k := range coreTabs {
		core[outcomeAt(d, &coreTabs[k], i)]++
	}
	for k := range optTabs {
		o := outcomeAt(d, &optTabs[k], i)
		optAll[o]++
		if optTabs[k].TF {
			optScored[o]++
		}
	}
	return core, optScored, optAll
}

// gatherScores grades every respondent of d by gathering each of
// queryValueNames in one block scan on workers workers; the result holds
// one count per respondent for each name.
func gatherScores(t testing.TB, d *colstore.Dataset, workers int) map[string][]uint8 {
	t.Helper()
	src := query.NewDatasetSource(d)
	out := make(map[string][]uint8, len(queryValueNames))
	values := make([]query.Value, len(queryValueNames))
	var cols []int
	for k, name := range queryValueNames {
		v, err := QueryValue(d.Schema, name)
		if err != nil {
			t.Fatal(err)
		}
		values[k] = v
		out[name] = make([]uint8, d.Len())
		cols = append(cols, v.Columns()...)
	}
	err := query.ScanBlocks(src, cols, workers, func(_ int, blk *query.Block) {
		ok := query.NewBitmap(blk.N)
		for k, v := range values {
			v.Gather(blk, out[queryValueNames[k]][blk.Lo:blk.Lo+blk.N], ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScoreColumnsMatchesReference grades a random cohort through the
// score values and with referenceOutcome, question by question, and
// requires identical counts of every outcome on every quiz.
func TestScoreColumnsMatchesReference(t *testing.T) {
	d := randomQuizCohort(t, 200)
	got := gatherScores(t, d, 1)
	fields := [...]PerQuestionOutcome{OutcomeCorrect, OutcomeIncorrect, OutcomeDontKnow, OutcomeUnanswered}
	for i := 0; i < d.Len(); i++ {
		var wantCore, wantScored, wantAll tally
		for _, q := range CoreQuestions() {
			wantCore[referenceOutcome(d, q.ID, i)]++
		}
		for _, q := range OptQuestions() {
			o := referenceOutcome(d, q.ID, i)
			wantAll[o]++
			if q.IsTrueFalse() {
				wantScored[o]++
			}
		}
		for k, name := range queryValueNames {
			want := [...]tally{wantCore, wantScored, wantAll}[k/4][fields[k%4]]
			if int(got[name][i]) != want {
				t.Fatalf("respondent %d %s: score value %d != reference %d", i, name, got[name][i], want)
			}
		}
	}
}

// TestScoreColumnsFixtureValues pins the fixture's expected tallies
// through the outcome tables.
func TestScoreColumnsFixtureValues(t *testing.T) {
	d := columnarFixture(t)
	core, _, optAll := tallyAt(d, 0)
	if core[OutcomeCorrect] != len(CoreQuestions()) || optAll[OutcomeCorrect] != len(OptQuestions()) {
		t.Fatalf("perfect respondent scored %d/%d core, %d/%d opt",
			core[OutcomeCorrect], len(CoreQuestions()), optAll[OutcomeCorrect], len(OptQuestions()))
	}
	core, _, optAll = tallyAt(d, 2)
	if core[OutcomeUnanswered] != len(CoreQuestions()) || optAll[OutcomeUnanswered] != len(OptQuestions()) {
		t.Fatalf("silent respondent tallied %v / %v", core, optAll)
	}
	core, optScored, optAll := tallyAt(d, 1)
	if core[OutcomeDontKnow] != len(CoreQuestions()) {
		t.Fatalf("respondent 1 core = %v, want all don't-know", core)
	}
	if optScored[OutcomeIncorrect] != 3 || optAll[OutcomeUnanswered] != 1 {
		t.Fatalf("respondent 1 opt = %v / %v", optScored, optAll)
	}
}

// TestClassifyAtMatchesReference cross-checks the outcome tables
// against referenceOutcome for every question slot of a random cohort.
func TestClassifyAtMatchesReference(t *testing.T) {
	d := randomQuizCohort(t, 200)
	coreTabs, optTabs := OutcomeTables(d.Schema)
	tabs := append(append([]OutcomeTable{}, coreTabs...), optTabs...)
	for i := 0; i < d.Len(); i++ {
		for k, id := range quizIDs() {
			if got, want := outcomeAt(d, &tabs[k], i), referenceOutcome(d, id, i); got != want {
				t.Fatalf("respondent %d %s: table %v != reference %v", i, id, got, want)
			}
		}
	}
	if got := optTabs[2].Outcome(-1); got != OutcomeIncorrect {
		t.Fatalf("free-text Level answer classified %v, want incorrect", got)
	}
}

// TestScoreAllColumnsWorkersInvariant checks grading a cohort of
// several scan blocks is independent of the worker count.
func TestScoreAllColumnsWorkersInvariant(t *testing.T) {
	d := randomQuizCohort(t, 2*query.BlockRows+100)
	base := gatherScores(t, d, 1)
	for _, w := range []int{2, 4, 0} {
		g := gatherScores(t, d, w)
		for _, name := range queryValueNames {
			if !slices.Equal(g[name], base[name]) {
				t.Fatalf("workers=%d: %s diverges from workers=1", w, name)
			}
		}
	}
}

// TestOutcomeTablesCachedOncePerProcess pins the table-cache contract:
// the canonical schema's outcome tables are one shared instance.
func TestOutcomeTablesCachedOncePerProcess(t *testing.T) {
	a, _ := OutcomeTables(Columns())
	b, _ := OutcomeTables(Columns())
	if &a[0] != &b[0] {
		t.Fatal("canonical outcome tables not cached: distinct instances returned")
	}
}
