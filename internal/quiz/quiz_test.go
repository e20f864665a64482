package quiz

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/survey"
)

// paperAnswerKey is the paper's ground truth per question: whether the
// assertion is TRUE of IEEE arithmetic. The answer key must hold exactly
// these values (and the oracle package's test pins the key to what the
// oracles derive).
var paperAnswerKey = map[string]bool{
	"core.commutativity":  true,  // addition commutes (non-NaN)
	"core.associativity":  false, // addition does not associate
	"core.distributivity": false,
	"core.ordering":       false, // ((a+b)-a)==b not guaranteed
	"core.identity":       false, // NaN != NaN
	"core.negzero":        false, // +0 == -0: unequal zeros impossible
	"core.square":         true,  // x*x >= 0 for non-NaN
	"core.overflow":       false, // saturates, does not wrap
	"core.divzero":        true,  // 1/0 = inf, a non-NaN
	"core.zerodivzero":    false, // 0/0 = NaN
	"core.satplus":        true,  // (x+1)==x possible
	"core.satminus":       true,  // (x-1)==x possible
	"core.denormprec":     true,  // gradual underflow loses precision
	"core.opprec":         true,  // rounding loses precision
	"core.sigexc":         false, // no default signal
}

func TestCoreOraclesMatchPaperKey(t *testing.T) {
	qs := CoreQuestions()
	if len(qs) != 15 {
		t.Fatalf("%d core questions, want 15", len(qs))
	}
	for _, q := range qs {
		want, ok := paperAnswerKey[q.ID]
		if !ok {
			t.Errorf("question %s not in the paper key", q.ID)
			continue
		}
		row, ok := KeyFor(q.ID)
		if !ok {
			t.Errorf("question %s not in the answer key", q.ID)
			continue
		}
		if got := row.Answer == "true"; got != want {
			t.Errorf("%s: answer key says %s, paper key says %v (witness: %s)",
				q.ID, row.Answer, want, row.Witness)
		}
		if row.Witness == "" {
			t.Errorf("%s: answer key has no witness", q.ID)
		}
	}
}

func TestOptOracles(t *testing.T) {
	qs := OptQuestions()
	if len(qs) != 4 {
		t.Fatalf("%d opt questions, want 4", len(qs))
	}
	want := map[string]string{
		"opt.madd":     "false", // not in the original standard / differs
		"opt.ftz":      "false", // non-compliant
		"opt.level":    "-O2",   // the paper's key, under optsim's model
		"opt.fastmath": "true",  // can be non-compliant
	}
	for _, q := range qs {
		row, _ := KeyFor(q.ID)
		if row.Answer != want[q.ID] {
			t.Errorf("%s: answer key %q, want %q (witness: %s)", q.ID, row.Answer, want[q.ID], row.Witness)
		}
		if q.IsTrueFalse() == (q.ID == "opt.level") {
			t.Errorf("%s: IsTrueFalse = %v", q.ID, q.IsTrueFalse())
		}
	}
	if row, _ := KeyFor("opt.level"); !strings.Contains(row.Witness, "-O2") {
		t.Errorf("level witness: %s", row.Witness)
	}
}

// TestAnswerKeyRows checks the table's shape: one row per quiz
// question, core then optimization in the paper's order; every answer
// a valid option of its question; a host-FPU row carries no flags.
func TestAnswerKeyRows(t *testing.T) {
	var ids []string
	for _, q := range CoreQuestions() {
		ids = append(ids, q.ID)
	}
	for _, q := range OptQuestions() {
		ids = append(ids, q.ID)
	}
	key := answerKey[:]
	if len(key) != len(ids) || len(key) != 19 {
		t.Fatalf("answer key has %d rows for %d questions, want 19", len(key), len(ids))
	}
	for i, row := range key {
		if row.ID != ids[i] {
			t.Errorf("row %d is %s, want %s", i, row.ID, ids[i])
		}
		valid := row.Answer == survey.AnswerTrue || row.Answer == survey.AnswerFalse
		if row.ID == "opt.level" {
			valid = slices.Contains(LevelChoices, row.Answer)
		}
		if !valid {
			t.Errorf("%s: answer %q is not an option of the question", row.ID, row.Answer)
		}
		if row.HostFPU && row.Flags != 0 {
			t.Errorf("%s: computed on the host FPU but carries flags %v", row.ID, row.Flags)
		}
	}
	if _, ok := KeyFor("core.nosuch"); ok {
		t.Error("KeyFor found a row for an unknown ID")
	}
}

func TestCorrectAnswerStrings(t *testing.T) {
	if a := KeyAnswer("core.identity"); a != "false" {
		t.Fatalf("identity correct answer %q", a)
	}
	if a := KeyAnswer("core.divzero"); a != "true" {
		t.Fatalf("divzero correct answer %q", a)
	}
	if a := KeyAnswer("opt.level"); a != "-O2" {
		t.Fatalf("level correct answer %q", a)
	}
}

func TestInstrumentValidates(t *testing.T) {
	ins := Instrument()
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	qs := ins.Questions()
	// 11 background + 15 core + 4 opt + 5 suspicion = 35.
	if len(qs) != 35 {
		t.Fatalf("%d questions, want 35", len(qs))
	}
	if len(ins.Sections) != 4 {
		t.Fatalf("%d sections", len(ins.Sections))
	}
	// No prompting/anchoring: participant-facing prompts must not use
	// the insider terms the paper deliberately avoids.
	for _, q := range qs {
		lower := strings.ToLower(q.Prompt)
		for _, banned := range []string{"nan", "denormal", "subnormal", "ieee", "saturat", "underflow", "overflow"} {
			if strings.Contains(lower, banned) {
				t.Errorf("question %s prompt uses banned term %q", q.ID, banned)
			}
		}
	}
}

func TestInstrumentJSONRoundTrip(t *testing.T) {
	ins := Instrument()
	data, err := survey.EncodeInstrument(ins)
	if err != nil {
		t.Fatal(err)
	}
	var back survey.Instrument
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Questions()) != len(ins.Questions()) {
		t.Fatal("question count changed in round trip")
	}
}

// oneRespondent is a one-respondent dataset whose answers are the
// given choices, by question ID.
func oneRespondent(t *testing.T, choices map[string]string) *colstore.Dataset {
	t.Helper()
	d := Columns().NewDataset("1.0", 1)
	for id, c := range choices {
		if err := d.SetAnswer(d.Schema.MustColumnIndex(id), 0, survey.Answer{Choice: c}); err != nil {
			t.Fatalf("SetAnswer(%s, %q): %v", id, c, err)
		}
	}
	return d
}

func TestScorePerfect(t *testing.T) {
	perfect := map[string]string{}
	for _, q := range CoreQuestions() {
		perfect[q.ID] = KeyAnswer(q.ID)
	}
	for _, q := range OptQuestions() {
		perfect[q.ID] = KeyAnswer(q.ID)
	}
	core, _, opt := tallyAt(oneRespondent(t, perfect), 0)
	if core[OutcomeCorrect] != 15 || core[OutcomeIncorrect] != 0 {
		t.Fatalf("perfect core tally: %v", core)
	}
	if opt[OutcomeCorrect] != 4 {
		t.Fatalf("perfect opt tally: %v", opt)
	}
}

func TestScoreAllWrongAndDontKnow(t *testing.T) {
	wrong, dk := map[string]string{}, map[string]string{}
	for _, q := range CoreQuestions() {
		w := "true"
		if KeyAnswer(q.ID) == "true" {
			w = "false"
		}
		wrong[q.ID] = w
		dk[q.ID] = survey.AnswerDontKnow
	}
	if tl, _, _ := tallyAt(oneRespondent(t, wrong), 0); tl[OutcomeIncorrect] != 15 {
		t.Fatalf("all wrong tally: %v", tl)
	}
	if tl, _, _ := tallyAt(oneRespondent(t, dk), 0); tl[OutcomeDontKnow] != 15 {
		t.Fatalf("all DK tally: %v", tl)
	}
	if tl, _, _ := tallyAt(oneRespondent(t, nil), 0); tl[OutcomeUnanswered] != 15 {
		t.Fatalf("empty tally: %v", tl)
	}
}

func TestScoreOptChoiceQuestion(t *testing.T) {
	_, _, tl := tallyAt(oneRespondent(t, map[string]string{"opt.level": "-O3"}), 0)
	if tl[OutcomeIncorrect] != 1 || tl[OutcomeUnanswered] != 3 {
		t.Fatalf("tally: %v", tl)
	}
	_, _, tl = tallyAt(oneRespondent(t, map[string]string{"opt.level": survey.AnswerDontKnow}), 0)
	if tl[OutcomeDontKnow] != 1 {
		t.Fatalf("DK tally: %v", tl)
	}
}

func TestClassify(t *testing.T) {
	coreTabs, optTabs := OutcomeTables(Columns())
	var square *OutcomeTable
	for k, q := range CoreQuestions() {
		if q.ID == "core.square" {
			square = &coreTabs[k]
		}
	}
	for choice, want := range map[string]PerQuestionOutcome{"true": OutcomeCorrect, "false": OutcomeIncorrect} {
		d := oneRespondent(t, map[string]string{"core.square": choice})
		if got := square.ByCode[d.TF(square.Col, 0)]; got != want {
			t.Fatalf("square %s classified %v, want %v", choice, got, want)
		}
	}
	level := &optTabs[2]
	d := oneRespondent(t, map[string]string{"opt.level": "-O2"})
	if got := level.Outcome(d.SingleCode(level.Col, 0)); got != OutcomeCorrect {
		t.Fatalf("level -O2 classified %v, want correct", got)
	}
}

func TestSuspicionItems(t *testing.T) {
	items := SuspicionItems()
	if len(items) != 5 {
		t.Fatalf("%d suspicion items", len(items))
	}
	ids := map[string]bool{}
	for _, it := range items {
		ids[it.ID] = true
		if it.Condition.GroundTruthSuspicion() < 1 || it.Condition.GroundTruthSuspicion() > 5 {
			t.Errorf("%s: bad ground truth", it.ID)
		}
	}
	for _, want := range []string{"susp.overflow", "susp.underflow", "susp.precision", "susp.invalid", "susp.denorm"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestChanceConstants(t *testing.T) {
	if CoreChance != 7.5 || OptChance != 1.5 {
		t.Fatal("chance constants drifted from the paper")
	}
}
