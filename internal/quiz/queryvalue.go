package quiz

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
)

// scoreValue is a query.Value counting one grading outcome per
// respondent across a quiz's questions. Each T/F question carries a
// 256-entry table, 1 where its outcome table gives the requested
// outcome and 0 elsewhere, so Gather adds one lookup per cell, one
// column at a time, with no branch on the answer. A respondent's value
// is a count of at most 16, so every sum is exact.
type scoreValue struct {
	tf []hitTable
	// level is the Standard-compliant Level question (nil when not
	// included); hit[o] is 1 for the requested outcome o.
	level *OutcomeTable
	hit   [4]float64
}

// hitTable is one T/F question's column and its per-code increment.
type hitTable struct {
	col  int
	hits [256]float64
}

func (v *scoreValue) Columns() []int {
	cols := make([]int, 0, len(v.tf)+1)
	for i := range v.tf {
		cols = append(cols, v.tf[i].col)
	}
	if v.level != nil {
		cols = append(cols, v.level.Col)
	}
	return cols
}

func (v *scoreValue) Gather(b *query.Block, dst []float64, ok []bool) {
	clear(dst)
	for j := range ok {
		ok[j] = true
	}
	for i := range v.tf {
		t := &v.tf[i]
		for j, code := range b.U8(t.col)[:len(dst)] {
			dst[j] += t.hits[code]
		}
	}
	if v.level != nil {
		for j, code := range b.I32(v.level.Col)[:len(dst)] {
			dst[j] += v.hit[v.level.Outcome(code)]
		}
	}
}

// The quizzes a score value can count, in canonValues order.
var queryQuizzes = [...]string{"core", "opt", "optall"}

var (
	canonValuesOnce sync.Once
	// canonValues holds the score values of the canonical Columns()
	// schema by quiz (queryQuizzes order) and outcome; they are
	// read-only once built, so every query shares them.
	canonValues [len(queryQuizzes)][4]*scoreValue
)

// QueryValue resolves a quiz measure name for the query engine:
// "<quiz>.<field>" with quiz one of core (15 T/F questions), opt (the
// three T/F optimization questions, the Figure 12 view), or optall
// (all four), and field one of score (a synonym: correct), incorrect,
// dontknow, unanswered. The value of a respondent is their count of
// that outcome — e.g. core.score is the core quiz score graded against
// the oracle answer key. The canonical Columns() schema's values are
// built once per process; any other schema's are built on the fly.
func QueryValue(s *colstore.Schema, name string) (query.Value, error) {
	quizName, field, ok := strings.Cut(name, ".")
	if !ok {
		return nil, fmt.Errorf("quiz: unknown value %q (want <quiz>.<field>, e.g. core.score)", name)
	}
	qi := slices.Index(queryQuizzes[:], quizName)
	if qi < 0 {
		return nil, fmt.Errorf("quiz: unknown quiz %q (want core, opt, or optall)", quizName)
	}
	var outcome PerQuestionOutcome
	switch field {
	case "score", "correct":
		outcome = OutcomeCorrect
	case "incorrect":
		outcome = OutcomeIncorrect
	case "dontknow":
		outcome = OutcomeDontKnow
	case "unanswered":
		outcome = OutcomeUnanswered
	default:
		return nil, fmt.Errorf("quiz: unknown field %q (want score, incorrect, dontknow, or unanswered)", field)
	}
	if s == Columns() {
		canonValuesOnce.Do(func() {
			core, opt := OutcomeTables(s)
			for q, quiz := range queryQuizzes {
				for o := range canonValues[q] {
					canonValues[q][o] = newScoreValue(core, opt, quiz, PerQuestionOutcome(o))
				}
			}
		})
		return canonValues[qi][outcome], nil
	}
	core, opt := OutcomeTables(s)
	return newScoreValue(core, opt, quizName, outcome), nil
}

// newScoreValue counts outcome over a quiz: the core tables for core,
// the optimization tables otherwise, with the Level question only for
// optall.
func newScoreValue(core, opt []OutcomeTable, quiz string, outcome PerQuestionOutcome) *scoreValue {
	tabs := core
	if quiz != "core" {
		tabs = opt
	}
	v := &scoreValue{tf: make([]hitTable, 0, len(tabs))}
	v.hit[outcome] = 1
	for i := range tabs {
		t := &tabs[i]
		switch {
		case t.TF:
			h := hitTable{col: t.Col}
			for code, o := range t.ByCode {
				h.hits[code] = v.hit[o]
			}
			v.tf = append(v.tf, h)
		case quiz == "optall":
			v.level = t
		}
	}
	return v
}

// OutcomeTable is one quiz question's outcome by answer code, for
// kernels that classify a whole column at a time.
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
	core = make([]OutcomeTable, len(t.core))
	for k, it := range t.core {
		core[k] = tf(it)
	}
	level := OutcomeTable{Col: t.levelCol}
	for code := range level.ByCode {
		level.ByCode[code] = t.classifyLevelCode(int32(code))
	}
	opt = []OutcomeTable{tf(t.optTF[0]), tf(t.optTF[1]), level, tf(t.optTF[2])}
	return core, opt
}
