package query_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/survey"
)

// scoreNames lists every quiz.QueryValue name.
var scoreNames = func() (names []string) {
	for _, q := range []string{"core", "opt", "optall"} {
		for _, f := range []string{"score", "correct", "incorrect", "dontknow", "unanswered"} {
			names = append(names, q+"."+f)
		}
	}
	return names
}()

// scoreCohort is a random cohort in which every T/F quiz question holds
// every code: rows 0-3 answer it unanswered, true, false and don't
// know. Row 4 answers the Level question in free text.
func scoreCohort(t *testing.T, rng *rand.Rand, n int) *colstore.Dataset {
	t.Helper()
	d := randomCohort(t, rng, n)
	var tfIDs []string
	for _, q := range quiz.CoreQuestions() {
		tfIDs = append(tfIDs, q.ID)
	}
	levelID := ""
	for _, q := range quiz.OptQuestions() {
		if q.IsTrueFalse() {
			tfIDs = append(tfIDs, q.ID)
		} else {
			levelID = q.ID
		}
	}
	for row, code := range []uint8{colstore.TFUnanswered, colstore.TFTrue, colstore.TFFalse, colstore.TFDontKnow} {
		for _, id := range tfIDs {
			d.SetTF(d.Schema.MustColumnIndex(id), row, code)
		}
	}
	if err := d.SetAnswer(d.Schema.MustColumnIndex(levelID), 4, survey.Answer{Choice: "write-in level"}); err != nil {
		t.Fatalf("SetAnswer: %v", err)
	}
	if code := d.SingleCode(d.Schema.MustColumnIndex(levelID), 4); code >= 0 {
		t.Fatalf("free-text Level answer stored as option code %d", code)
	}
	return d
}

// referenceOutcome grades respondent i's answer to question id the
// plain way, apart from the outcome tables: it compares the answer's
// label with the answer key's.
func referenceOutcome(d *colstore.Dataset, id string, i int) quiz.PerQuestionOutcome {
	ci := d.Schema.MustColumnIndex(id)
	label := d.SingleLabel
	if d.Schema.Column(ci).Kind == survey.TrueFalse {
		label = func(ci, i int) string {
			return [...]string{"", survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}[d.TF(ci, i)]
		}
	}
	switch label(ci, i) {
	case "":
		return quiz.OutcomeUnanswered
	case survey.AnswerDontKnow:
		return quiz.OutcomeDontKnow
	case quiz.KeyAnswer(id):
		return quiz.OutcomeCorrect
	}
	return quiz.OutcomeIncorrect
}

// tally counts outcomes, indexed by quiz.PerQuestionOutcome.
type tally [4]int

// referenceTallies counts respondent i's reference outcomes on the core
// quiz, the three T/F optimization questions and all four.
func referenceTallies(d *colstore.Dataset, i int) (core, opt, optAll tally) {
	for _, q := range quiz.CoreQuestions() {
		core[referenceOutcome(d, q.ID, i)]++
	}
	for _, q := range quiz.OptQuestions() {
		o := referenceOutcome(d, q.ID, i)
		optAll[o]++
		if q.IsTrueFalse() {
			opt[o]++
		}
	}
	return core, opt, optAll
}

// tallyField returns the count a score value name reads from a tally.
func tallyField(tl tally, field string) int {
	switch field {
	case "score", "correct":
		return tl[quiz.OutcomeCorrect]
	case "incorrect":
		return tl[quiz.OutcomeIncorrect]
	case "dontknow":
		return tl[quiz.OutcomeDontKnow]
	}
	return tl[quiz.OutcomeUnanswered]
}

// TestScoreValuesVsReference pins every quiz score value against
// referenceTallies from a row loop: grouped and ungrouped,
// on both sources, at several worker counts, over cohorts with a block
// tail, every T/F code and a free-text Level answer.
func TestScoreValuesVsReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	rng := rand.New(rand.NewSource(37))
	s := quiz.Columns()
	keyCi := s.MustColumnIndex(quiz.BGFormalTraining)
	key := query.SingleKey{Col: keyCi, Options: s.Column(keyCi).Options}
	card := len(key.Options) + 2

	values := make([]query.Value, len(scoreNames))
	for vi, name := range scoreNames {
		v, err := quiz.QueryValue(s, name)
		if err != nil {
			t.Fatalf("QueryValue(%q): %v", name, err)
		}
		values[vi] = v
	}

	for _, n := range []int{17, 8193} {
		d := scoreCohort(t, rng, n)
		mem, shard := sources(t, d)

		// Reference: per-group and whole-cohort tallies of every value.
		wantCount := make([]int64, card)
		wantN := make([][]int64, len(values))
		wantSum := make([][]float64, len(values))
		allN := make([][]int64, len(values))
		allSum := make([][]float64, len(values))
		for vi := range values {
			wantN[vi], wantSum[vi] = make([]int64, card), make([]float64, card)
			allN[vi], allSum[vi] = make([]int64, 1), make([]float64, 1)
		}
		for i := 0; i < n; i++ {
			k := d.SingleCode(keyCi, i)
			if k < 0 {
				k = int32(card - 1)
			}
			wantCount[k]++
			core, opt, optAll := referenceTallies(d, i)
			tallies := map[string]tally{"core": core, "opt": opt, "optall": optAll}
			for vi, name := range scoreNames {
				quizName, field, _ := strings.Cut(name, ".")
				x := float64(tallyField(tallies[quizName], field))
				wantN[vi][k]++
				wantSum[vi][k] += x
				allN[vi][0]++
				allSum[vi][0] += x
			}
		}

		for _, grouped := range []bool{false, true} {
			q := query.Query{Values: values}
			wc, wn, ws := []int64{int64(n)}, allN, allSum
			if grouped {
				q.Key = key
				wc, wn, ws = wantCount, wantN, wantSum
			}
			for _, w := range []int{1, 3, 16} {
				for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
					res, err := query.Run(src, q, w)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if !reflect.DeepEqual(res.Count, wc) {
						t.Fatalf("n=%d grouped=%v %s workers=%d: counts %v, want %v",
							n, grouped, srcName, w, res.Count, wc)
					}
					for vi, name := range scoreNames {
						if !reflect.DeepEqual(res.N[vi], wn[vi]) || !reflect.DeepEqual(res.Sum[vi], ws[vi]) {
							t.Fatalf("n=%d grouped=%v %s workers=%d %s: N %v sum %v, want N %v sum %v",
								n, grouped, srcName, w, name, res.N[vi], res.Sum[vi], wn[vi], ws[vi])
						}
					}
				}
			}
		}
	}
}

// TestScoreGatherZeroAlloc pins that a score value's Gather allocates
// nothing once QueryValue has returned.
func TestScoreGatherZeroAlloc(t *testing.T) {
	d := scoreCohort(t, rand.New(rand.NewSource(38)), 300)
	src := query.NewDatasetSource(d)
	for _, name := range scoreNames {
		v, err := quiz.QueryValue(d.Schema, name)
		if err != nil {
			t.Fatalf("QueryValue(%q): %v", name, err)
		}
		r, err := src.NewReader(v.Columns())
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		blk, err := r.Block(0)
		if err != nil {
			t.Fatalf("Block: %v", err)
		}
		dst, ok := make([]uint8, blk.N), query.NewBitmap(blk.N)
		if allocs := testing.AllocsPerRun(100, func() { v.Gather(blk, dst, ok) }); allocs != 0 {
			t.Fatalf("%s: Gather allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkRunScore times a grouped mean:core.score query over a
// generated n=100,000 cohort, in memory and streamed from an encoded
// shard.
func BenchmarkRunScore(b *testing.B) {
	d := respondent.GenerateMainColumnar(42, 100_000, 0, nil, respondent.Instrumentation{}).Cols
	mem, shard := sources(b, d)
	s := d.Schema
	keyCi := s.MustColumnIndex(quiz.BGContribSize)
	v, err := quiz.QueryValue(s, "core.score")
	if err != nil {
		b.Fatalf("QueryValue: %v", err)
	}
	q := query.Query{
		Key:    query.SingleKey{Col: keyCi, Options: s.Column(keyCi).Options},
		Values: []query.Value{v},
	}
	for _, bc := range []struct {
		name string
		src  query.Source
	}{{"mem", mem}, {"shard", shard}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := query.Run(bc.src, q, 0); err != nil {
					b.Fatalf("Run: %v", err)
				}
			}
		})
	}
}
