package quiz

// KeyAnswer returns the answer-key answer string of a quiz question
// ID: "true" or "false", or the right option of the Standard-compliant
// Level question ("" for an unknown ID).
func KeyAnswer(id string) string {
	r, _ := KeyFor(id)
	return r.Answer
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
