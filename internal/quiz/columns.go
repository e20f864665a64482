package quiz

import (
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/survey"
)

// Columns returns the interned columnar schema of the paper's
// instrument. It is built once and shared read-only; every columnar
// dataset in the pipeline (generation, grading, figure tallies) hangs
// off this schema.
func Columns() *colstore.Schema {
	schemaOnce.Do(func() { schema = colstore.MustSchema(Instrument()) })
	return schema
}

var (
	schemaOnce sync.Once
	schema     *colstore.Schema
)

// tfCorrectCode converts an answer-key answer string to its truefalse
// code.
func tfCorrectCode(answer string) uint8 {
	if answer == survey.AnswerTrue {
		return colstore.TFTrue
	}
	return colstore.TFFalse
}

// OutcomeTable is one quiz question's outcome by answer code: the one
// place an answer is graded. Kernels classify a whole column at a time
// through it.
type OutcomeTable struct {
	// Col is the question's schema column: truefalse codes for a T/F
	// question, single-choice codes for Standard-compliant Level.
	Col int
	// TF reports a T/F question.
	TF bool
	// ByCode is the outcome of every code below 256.
	ByCode [256]PerQuestionOutcome
}

// Outcome classifies a single-choice code: free-text (negative) codes
// are incorrect.
func (t *OutcomeTable) Outcome(code int32) PerQuestionOutcome {
	if uint32(code) < uint32(len(t.ByCode)) {
		return t.ByCode[code]
	}
	return OutcomeIncorrect
}

var (
	canonTablesOnce     sync.Once
	canonCore, canonOpt []OutcomeTable
)

// OutcomeTables returns the outcome tables of the 15 core questions and
// of the four optimization questions (MADD, FTZ, Level, Fast-math),
// each in paper order. The canonical Columns() schema's tables are
// built once per process and shared read-only; any other schema's are
// built on the fly.
func OutcomeTables(s *colstore.Schema) (core, opt []OutcomeTable) {
	if s == Columns() {
		canonTablesOnce.Do(func() { canonCore, canonOpt = buildOutcomeTables(s) })
		return canonCore, canonOpt
	}
	return buildOutcomeTables(s)
}

// buildOutcomeTables derives the outcome tables of a schema holding
// the instrument's questions from the answer key.
func buildOutcomeTables(s *colstore.Schema) (core, opt []OutcomeTable) {
	for _, q := range CoreQuestions() {
		core = append(core, outcomeTable(s, q.ID))
	}
	for _, q := range OptQuestions() {
		opt = append(opt, outcomeTable(s, q.ID))
	}
	return core, opt
}

// outcomeTable grades every code of question id's column: code 0 is
// unanswered, the don't-know code don't know, the key's answer correct
// and any other code incorrect.
func outcomeTable(s *colstore.Schema, id string) OutcomeTable {
	ci := s.MustColumnIndex(id)
	col := s.Column(ci)
	t := OutcomeTable{Col: ci, TF: col.Kind == survey.TrueFalse}
	var correct, dontKnow int
	if t.TF {
		correct, dontKnow = int(tfCorrectCode(KeyAnswer(id))), int(colstore.TFDontKnow)
	} else {
		correct = int(col.MustOptionCode(KeyAnswer(id)))
		dontKnow = int(col.MustOptionCode(survey.AnswerDontKnow))
	}
	for code := range t.ByCode {
		t.ByCode[code] = OutcomeIncorrect
	}
	t.ByCode[correct] = OutcomeCorrect
	t.ByCode[dontKnow] = OutcomeDontKnow
	t.ByCode[colstore.TFUnanswered] = OutcomeUnanswered // code 0 in every kind
	return t
}
