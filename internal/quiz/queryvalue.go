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

// outcomeLabels indexes PerQuestionOutcome.
var outcomeLabels = []string{"correct", "incorrect", "dontknow", "unanswered"}

// tfOutcomeKey groups respondents by their outcome on one T/F quiz
// question (key = PerQuestionOutcome).
type tfOutcomeKey struct {
	it colItem
}

func (k tfOutcomeKey) Columns() []int   { return []int{k.it.ci} }
func (k tfOutcomeKey) Cardinality() int { return 4 }
func (k tfOutcomeKey) Labels() []string { return outcomeLabels }

func (k tfOutcomeKey) Keys(b *query.Block, dst []int32) {
	// One classification per possible code, then a table lookup per
	// row: the byte index needs no bounds check.
	var outcome [256]int32
	for code := range outcome {
		outcome[code] = int32(classifyTFCode(uint8(code), k.it.correct))
	}
	col := b.U8(k.it.ci)[:len(dst)]
	for j, code := range col {
		dst[j] = outcome[code]
	}
}

// levelOutcomeKey groups respondents by their outcome on the
// Standard-compliant Level question.
type levelOutcomeKey struct {
	t *ScoreTable
}

func (k levelOutcomeKey) Columns() []int   { return []int{k.t.levelCol} }
func (k levelOutcomeKey) Cardinality() int { return 4 }
func (k levelOutcomeKey) Labels() []string { return outcomeLabels }

func (k levelOutcomeKey) Keys(b *query.Block, dst []int32) {
	col := b.I32(k.t.levelCol)
	for j := range dst {
		dst[j] = int32(k.t.classifyLevelCode(col[j]))
	}
}

// CoreOutcomeKeyer keys respondents by their outcome on core question
// k (paper order) — the query-engine form of ClassifyCore.
func CoreOutcomeKeyer(s *colstore.Schema, k int) query.Keyer {
	return tfOutcomeKey{it: ScoreTableFor(s).core[k]}
}

// OptOutcomeKeyer keys respondents by their outcome on optimization
// question k (paper order: MADD, FTZ, Level, Fast-math) — the
// query-engine form of ClassifyOpt.
func OptOutcomeKeyer(s *colstore.Schema, k int) query.Keyer {
	t := ScoreTableFor(s)
	switch k {
	case 0, 1:
		return tfOutcomeKey{it: t.optTF[k]}
	case 2:
		return levelOutcomeKey{t: t}
	default:
		return tfOutcomeKey{it: t.optTF[2]}
	}
}
