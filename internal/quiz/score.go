package quiz

import "fpstudy/internal/survey"

// coreItems/optItems are the flattened scoring tables: question IDs
// and correct answers in paper order, read from the answer key once at
// package initialisation and shared read-only, so any number of grading
// goroutines can score concurrently without a lock. Grading hot loops
// iterate these instead of rebuilding the question set per respondent.
var coreItems, optItems = buildScoreItems()

// scoredItem is the minimal per-question data needed to grade one
// answer.
type scoredItem struct {
	id      string
	correct string // correct answer string (T/F or choice)
	isTF    bool
}

func buildScoreItems() (core, opt []scoredItem) {
	for _, q := range CoreQuestions() {
		core = append(core, scoredItem{id: q.ID, correct: CoreAnswer(q.ID), isTF: true})
	}
	for _, q := range OptQuestions() {
		opt = append(opt, scoredItem{id: q.ID, correct: OptAnswer(q.ID), isTF: q.IsTrueFalse()})
	}
	return core, opt
}

// CoreAnswer returns the answer-key answer string for a core question
// ID ("" for an unknown ID).
func CoreAnswer(id string) string {
	r, _ := KeyFor(id)
	return r.Answer
}

// OptAnswer returns the answer-key answer string for an optimization
// question ID ("" for an unknown ID).
func OptAnswer(id string) string {
	r, _ := KeyFor(id)
	return r.Answer
}

// Tally counts quiz outcomes for one participant.
type Tally struct {
	Correct    int
	Incorrect  int
	DontKnow   int
	Unanswered int
}

// Total returns the number of questions tallied.
func (t Tally) Total() int { return t.Correct + t.Incorrect + t.DontKnow + t.Unanswered }

// Add accumulates another tally.
func (t *Tally) Add(o Tally) {
	t.Correct += o.Correct
	t.Incorrect += o.Incorrect
	t.DontKnow += o.DontKnow
	t.Unanswered += o.Unanswered
}

// count classifies one answer against the correct string and
// increments the matching bucket.
func (t *Tally) count(a survey.Answer, correct string) {
	switch {
	case a.IsUnanswered():
		t.Unanswered++
	case a.Choice == survey.AnswerDontKnow:
		t.DontKnow++
	case a.Choice == correct:
		t.Correct++
	default:
		t.Incorrect++
	}
}

// ScoreCore grades the 15 core questions of a response.
func ScoreCore(r survey.Response) Tally {
	var t Tally
	for _, it := range coreItems {
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// ScoreOpt grades the optimization quiz. All four questions are
// tallied; the Standard-compliant Level question is a single choice
// whose "don't know" is an explicit option handled by the same
// classification.
func ScoreOpt(r survey.Response) Tally {
	var t Tally
	for _, it := range optItems {
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// ScoreOptScored grades only the three true/false optimization
// questions — the view the paper's Figure 12 reports (the
// Standard-compliant Level choice question is excluded there because it
// is not T/F).
func ScoreOptScored(r survey.Response) Tally {
	var t Tally
	for _, it := range optItems {
		if !it.isTF {
			continue
		}
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// Grades holds the per-respondent tallies of one graded dataset, in
// response order.
type Grades struct {
	Core      []Tally // 15 core questions
	OptScored []Tally // the three T/F optimization questions (Figure 12 view)
	OptAll    []Tally // all four optimization questions
}

// CoreChance is the expected number of correct core answers under
// uniform random true/false guessing (15 questions * 1/2).
const CoreChance = 7.5

// OptChance is the expected correct count guessing the three T/F
// optimization questions (Standard-compliant Level excluded, per the
// paper's Figure 12 note).
const OptChance = 1.5

// PerQuestionOutcome classifies one response's answer to one question.
type PerQuestionOutcome int

const (
	OutcomeCorrect PerQuestionOutcome = iota
	OutcomeIncorrect
	OutcomeDontKnow
	OutcomeUnanswered
)

// ClassifyCore returns the outcome of a response on one core question.
func ClassifyCore(r survey.Response, q CoreQuestion) PerQuestionOutcome {
	return classify(r.Answer(q.ID), CoreAnswer(q.ID))
}

// ClassifyOpt returns the outcome of a response on one optimization
// question: T/F or the Standard-compliant Level choice, whose "don't
// know" is an explicit option classified the same way.
func ClassifyOpt(r survey.Response, q OptQuestion) PerQuestionOutcome {
	return classify(r.Answer(q.ID), OptAnswer(q.ID))
}

func classify(a survey.Answer, correct string) PerQuestionOutcome {
	switch {
	case a.IsUnanswered():
		return OutcomeUnanswered
	case a.Choice == survey.AnswerDontKnow:
		return OutcomeDontKnow
	case a.Choice == correct:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}
