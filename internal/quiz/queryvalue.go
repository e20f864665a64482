package quiz

import (
	"fmt"
	"strings"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
)

// scoreValue is a query.Value counting one grading outcome per
// respondent across a quiz's questions. It runs column-major over the
// block — one pass per question over dense codes — so grading an
// n=10M streamed cohort needs no per-respondent Tally materialization.
type scoreValue struct {
	items   []colItem
	table   *ScoreTable // non-nil when the Level question is included
	outcome PerQuestionOutcome
}

func (v scoreValue) Columns() []int {
	cols := make([]int, 0, len(v.items)+1)
	for _, it := range v.items {
		cols = append(cols, it.ci)
	}
	if v.table != nil {
		cols = append(cols, v.table.levelCol)
	}
	return cols
}

func (v scoreValue) Gather(b *query.Block, dst []float64, ok []bool) {
	for j := range dst {
		dst[j], ok[j] = 0, true
	}
	for _, it := range v.items {
		col := b.U8(it.ci)
		for j := range dst {
			if classifyTFCode(col[j], it.correct) == v.outcome {
				dst[j]++
			}
		}
	}
	if v.table != nil {
		col := b.I32(v.table.levelCol)
		for j := range dst {
			if v.table.classifyLevelCode(col[j]) == v.outcome {
				dst[j]++
			}
		}
	}
}

// QueryValue resolves a quiz measure name for the query engine:
// "<quiz>.<field>" with quiz one of core (15 T/F questions), opt (the
// three T/F optimization questions, the Figure 12 view), or optall
// (all four), and field one of score (a synonym: correct), incorrect,
// dontknow, unanswered. The value of a respondent is their count of
// that outcome — e.g. core.score is the core quiz score graded against
// the oracle answer key.
func QueryValue(s *colstore.Schema, name string) (query.Value, error) {
	quizName, field, ok := strings.Cut(name, ".")
	if !ok {
		return nil, fmt.Errorf("quiz: unknown value %q (want <quiz>.<field>, e.g. core.score)", name)
	}
	t := ScoreTableFor(s)
	v := scoreValue{}
	switch quizName {
	case "core":
		v.items = t.core
	case "opt":
		v.items = t.optTF
	case "optall":
		v.items = t.optTF
		v.table = t
	default:
		return nil, fmt.Errorf("quiz: unknown quiz %q (want core, opt, or optall)", quizName)
	}
	switch field {
	case "score", "correct":
		v.outcome = OutcomeCorrect
	case "incorrect":
		v.outcome = OutcomeIncorrect
	case "dontknow":
		v.outcome = OutcomeDontKnow
	case "unanswered":
		v.outcome = OutcomeUnanswered
	default:
		return nil, fmt.Errorf("quiz: unknown field %q (want score, incorrect, dontknow, or unanswered)", field)
	}
	return v, nil
}

// OutcomeTable is one quiz question's outcome by answer code: the
// table-driven form of ClassifyCoreAt and ClassifyOptAt, for kernels
// that classify a whole column at a time.
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

// OutcomeTables returns the outcome tables of the 15 core questions and
// of the four optimization questions (MADD, FTZ, Level, Fast-math),
// each in paper order.
func OutcomeTables(s *colstore.Schema) (core, opt []OutcomeTable) {
	t := ScoreTableFor(s)
	tf := func(it colItem) OutcomeTable {
		o := OutcomeTable{Col: it.ci, TF: true}
		for code := range o.ByCode {
			o.ByCode[code] = classifyTFCode(uint8(code), it.correct)
		}
		return o
	}
	for _, it := range t.core {
		core = append(core, tf(it))
	}
	level := OutcomeTable{Col: t.levelCol}
	for code := range level.ByCode {
		level.ByCode[code] = t.classifyLevelCode(int32(code))
	}
	opt = []OutcomeTable{tf(t.optTF[0]), tf(t.optTF[1]), level, tf(t.optTF[2])}
	return core, opt
}
