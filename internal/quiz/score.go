package quiz

// KeyAnswer returns the answer-key answer string of a quiz question
// ID: "true" or "false", or the right option of the Standard-compliant
// Level question ("" for an unknown ID).
func KeyAnswer(id string) string {
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
