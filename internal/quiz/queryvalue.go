package quiz

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
)

// scoreValue is a query.Value counting one grading outcome per
// respondent across a quiz's questions. A T/F question's outcome holds
// for one code (correct, don't know, unanswered) or for every code but
// three (incorrect). Gather therefore starts every row's byte at the
// number of questions of the second kind and, column by column, adds
// one per row for each code of the first kind and takes one away for
// each excluded code of the second, eight rows per load. A row's byte
// never goes below zero on the way, and its value is a count of at most
// 16 (15 core questions, or four optimization ones), so no byte lane
// carries into the next and every sum is exact.
type scoreValue struct {
	base  uint8
	terms []eqTerm
	// level is the Standard-compliant Level question (nil when not
	// included); levelHit[min(uint32(code), 256)] is 1 for a code with
	// the counted outcome, index 256 standing for free-text (negative)
	// codes, which are incorrect.
	level    *OutcomeTable
	levelHit [257]uint8
}

// eqTerm adds mul (1, or -1 to take one away) to the byte of every row
// whose code in column col equals code; lanes is code in every byte.
type eqTerm struct {
	col   int
	lanes uint64
	mul   uint64
}

// addEq applies one term to dst, eight rows per load. A short last
// word reads past-the-end rows as zero; any carry or borrow they cause
// moves toward higher, dropped, bytes only.
func addEq(dst, col []uint8, t *eqTerm) {
	c, mul := t.lanes, t.mul
	col = col[:len(dst)]
	j := 0
	for ; j+8 <= len(dst); j += 8 {
		h := query.ZeroLanes(binary.LittleEndian.Uint64(col[j:j+8])^c) >> 7
		d := dst[j : j+8]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)+h*mul)
	}
	if j < len(dst) {
		h := query.ZeroLanes(query.Word8(col, j)^c) >> 7
		query.PutWord8(dst, j, query.Word8(dst, j)+h*mul)
	}
}

func (v *scoreValue) Columns() []int {
	var cols []int
	for _, t := range v.terms {
		if !slices.Contains(cols, t.col) {
			cols = append(cols, t.col)
		}
	}
	if v.level != nil {
		cols = append(cols, v.level.Col)
	}
	return cols
}

func (v *scoreValue) Gather(b *query.Block, dst []uint8, ok *query.Bitmap) {
	ok.Reset(b.N)
	clear(dst)
	if v.base > 0 {
		for j := 0; j < len(dst); j += 8 {
			query.PutWord8(dst, j, lanes01*uint64(v.base))
		}
	}
	for i := range v.terms {
		addEq(dst, b.U8(v.terms[i].col), &v.terms[i])
	}
	if v.level != nil {
		for j, code := range b.I32(v.level.Col)[:len(dst)] {
			dst[j] += v.levelHit[min(uint32(code), 256)]
		}
	}
}

// lanes01 has 1 in every byte.
const lanes01 = 0x0101010101010101

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
// the answer key. The canonical Columns() schema's values are
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
	v := &scoreValue{}
	for i := range tabs {
		t := &tabs[i]
		switch {
		case t.TF:
			var hits, misses []uint8
			for code, o := range t.ByCode {
				if o == outcome {
					hits = append(hits, uint8(code))
				} else {
					misses = append(misses, uint8(code))
				}
			}
			if len(hits) <= len(misses) {
				for _, c := range hits {
					v.terms = append(v.terms, eqTerm{col: t.Col, lanes: lanes01 * uint64(c), mul: 1})
				}
			} else {
				v.base++
				for _, c := range misses {
					v.terms = append(v.terms, eqTerm{col: t.Col, lanes: lanes01 * uint64(c), mul: ^uint64(0)})
				}
			}
		case quiz == "optall":
			v.level = t
			// Code 256 is past ByCode, so Outcome makes it incorrect,
			// as it does the free-text codes it stands for.
			for code := range v.levelHit {
				if t.Outcome(int32(code)) == outcome {
					v.levelHit[code] = 1
				}
			}
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
