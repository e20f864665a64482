package quiz

import (
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/parallel"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
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

// colItem is the columnar grading record of one T/F question: its
// column index and the correct code.
type colItem struct {
	ci      int
	correct uint8
}

// ScoreTable is the answer key bound to a schema's column indices: the
// one-stop grading table for columnar datasets. The canonical schema's
// table is built once under a sync.Once and shared read-only, so
// grading and figure loops consult pure in-memory codes no matter how
// many respondents they touch. ScoreColumnsAt grades a respondent from
// it; whole-column kernels read its per-code form, OutcomeTables.
type ScoreTable struct {
	core  []colItem // 15 core questions, paper order
	optTF []colItem // the three T/F optimization questions, paper order
	// The Standard-compliant Level single-choice question.
	levelCol     int
	levelCorrect int32
	levelDK      int32
}

var (
	colScoreOnce sync.Once
	colScore     *ScoreTable
)

// buildColScoreTable derives the columnar grading table for an
// arbitrary schema holding the instrument's questions.
func buildColScoreTable(s *colstore.Schema) *ScoreTable {
	t := &ScoreTable{}
	for _, q := range CoreQuestions() {
		t.core = append(t.core, colItem{
			ci:      s.MustColumnIndex(q.ID),
			correct: tfCorrectCode(CoreAnswer(q.ID)),
		})
	}
	for _, q := range OptQuestions() {
		ci := s.MustColumnIndex(q.ID)
		if q.IsTrueFalse() {
			t.optTF = append(t.optTF, colItem{ci: ci, correct: tfCorrectCode(OptAnswer(q.ID))})
			continue
		}
		col := s.Column(ci)
		t.levelCol = ci
		t.levelCorrect = col.MustOptionCode(OptAnswer(q.ID))
		t.levelDK = col.MustOptionCode(survey.AnswerDontKnow)
	}
	return t
}

// ScoreTableFor returns the grading table for a schema: the canonical
// Columns() schema hits the process-wide cached table; any other schema
// over the same instrument is derived on the fly.
func ScoreTableFor(s *colstore.Schema) *ScoreTable {
	if s == Columns() {
		colScoreOnce.Do(func() { colScore = buildColScoreTable(s) })
		return colScore
	}
	return buildColScoreTable(s)
}

// countTF classifies one truefalse code against the correct code.
func (t *Tally) countTF(code, correct uint8) {
	switch code {
	case colstore.TFUnanswered:
		t.Unanswered++
	case colstore.TFDontKnow:
		t.DontKnow++
	case correct:
		t.Correct++
	default:
		t.Incorrect++
	}
}

// classifyTFCode maps a truefalse code to a per-question outcome.
func classifyTFCode(code, correct uint8) PerQuestionOutcome {
	switch code {
	case colstore.TFUnanswered:
		return OutcomeUnanswered
	case colstore.TFDontKnow:
		return OutcomeDontKnow
	case correct:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

// classifyLevelCode maps a Standard-compliant Level single-choice code
// to an outcome.
func (t *ScoreTable) classifyLevelCode(code int32) PerQuestionOutcome {
	switch code {
	case 0:
		return OutcomeUnanswered
	case t.levelDK:
		return OutcomeDontKnow
	case t.levelCorrect:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

// ScoreColumnsAt grades respondent i of a columnar dataset: the core
// tally, the three-question T/F optimization tally (the Figure 12
// view), and the all-four optimization tally. It allocates nothing.
func ScoreColumnsAt(d *colstore.Dataset, i int) (core, optScored, optAll Tally) {
	t := ScoreTableFor(d.Schema)
	for _, it := range t.core {
		core.countTF(d.TF(it.ci, i), it.correct)
	}
	for _, it := range t.optTF {
		optScored.countTF(d.TF(it.ci, i), it.correct)
	}
	optAll = optScored
	switch t.classifyLevelCode(d.SingleCode(t.levelCol, i)) {
	case OutcomeUnanswered:
		optAll.Unanswered++
	case OutcomeDontKnow:
		optAll.DontKnow++
	case OutcomeCorrect:
		optAll.Correct++
	default:
		optAll.Incorrect++
	}
	return core, optScored, optAll
}

// ScoreAllColumns grades every respondent of a columnar dataset in
// parallel (workers <= 0 means GOMAXPROCS). It gives the tallies
// ScoreCore, ScoreOptScored and ScoreOpt give each row, but the
// per-respondent inner loop reads dense code columns instead of hashing
// map keys, and performs zero allocations.
func ScoreAllColumns(d *colstore.Dataset, workers int) Grades {
	t0 := telemetry.Start()
	// Build the table before fanning out, so workers never contend on
	// the sync.Once.
	ScoreTableFor(d.Schema)
	n := d.Len()
	g := Grades{
		Core:      make([]Tally, n),
		OptScored: make([]Tally, n),
		OptAll:    make([]Tally, n),
	}
	parallel.ForEach(workers, n, func(i int) {
		g.Core[i], g.OptScored[i], g.OptAll[i] = ScoreColumnsAt(d, i)
	})
	telemetry.Done(telemetry.StageGradeBatch, 0, t0, int64(n), 0)
	return g
}
