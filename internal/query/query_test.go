package query_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// randomAnswer draws a random answer for q, exercising every storage
// path: codes, free-text references, verbatim (shuffled) multi lists,
// and free-text multi additions.
func randomAnswer(rng *rand.Rand, q survey.Question) (survey.Answer, bool) {
	switch q.Kind {
	case survey.TrueFalse:
		tf := []string{survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}
		return survey.Answer{Choice: tf[rng.Intn(len(tf))]}, true
	case survey.Likert:
		return survey.Answer{Level: 1 + rng.Intn(q.Scale)}, true
	case survey.SingleChoice:
		if rng.Intn(8) == 0 {
			return survey.Answer{Choice: "write-in option &<js>"}, true
		}
		return survey.Answer{Choice: q.Options[rng.Intn(len(q.Options))]}, true
	case survey.MultiChoice:
		var choices []string
		for _, o := range q.Options {
			if rng.Intn(3) == 0 {
				choices = append(choices, o)
			}
		}
		switch rng.Intn(4) {
		case 0:
			if len(choices) > 1 {
				// Verbatim path: non-canonical order spills the whole list.
				j := rng.Intn(len(choices) - 1)
				choices[j], choices[j+1] = choices[j+1], choices[j]
			}
		case 1:
			choices = append(choices, "Befunge-93", "INTERCAL")
		}
		if choices == nil {
			return survey.Answer{}, false
		}
		return survey.Answer{Choices: choices}, true
	}
	return survey.Answer{}, false
}

// randomCohort builds a seeded-random columnar cohort over the quiz
// instrument, including spill paths; about one answer in five is left
// unanswered.
func randomCohort(t *testing.T, rng *rand.Rand, n int) *colstore.Dataset {
	t.Helper()
	d := quiz.Columns().NewDataset("1.0", n)
	qs := quiz.Instrument().Questions()
	for i := 0; i < n; i++ {
		for ci, q := range qs {
			if rng.Intn(5) == 0 {
				continue // unanswered
			}
			if a, ok := randomAnswer(rng, q); ok {
				if err := d.SetAnswer(ci, i, a); err != nil {
					t.Fatalf("SetAnswer: %v", err)
				}
			}
		}
	}
	return d
}

// sources returns the in-memory and streaming views of the same
// cohort (the shard is encoded to bytes and re-opened).
func sources(t testing.TB, d *colstore.Dataset) (mem, shard query.Source) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	sr, err := colstore.NewShardReader(d.Schema, bytes.NewReader(buf.Bytes()), int64(buf.Len()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("NewShardReader: %v", err)
	}
	return query.NewDatasetSource(d), query.NewShardSource(sr)
}

// effectiveMask rebuilds a row's effective multi-choice option bitset
// from the materialized label list — the reference the U64 kernels
// (raw masks plus verbatim patches) must reproduce.
func effectiveMask(d *colstore.Dataset, ci, i int) uint64 {
	c := d.Schema.Column(ci)
	var mask uint64
	for _, lbl := range d.MultiChoices(ci, i) {
		if code, ok := c.OptionCode(lbl); ok {
			mask |= 1 << uint(code-1)
		}
	}
	return mask
}

// selectedRows runs a filter and returns the selected row indices in
// order, pinning the whole selection bitmap (not just its count).
func selectedRows(t *testing.T, src query.Source, filter []query.Predicate, workers int, n int) []float64 {
	t.Helper()
	var cols []int
	for _, p := range filter {
		cols = append(cols, p.Columns()...)
	}
	parts := make([][]float64, query.NumBlocks(n))
	err := query.ScanBlocks(src, cols, workers, func(b int, blk *query.Block) {
		sel := query.NewBitmap(blk.N)
		for _, p := range filter {
			p.Apply(blk, sel)
		}
		for j := 0; j < blk.N; j++ {
			if sel.Test(j) {
				parts[b] = append(parts[b], float64(blk.Lo+j))
			}
		}
	})
	if err != nil {
		t.Fatalf("ScanBlocks: %v", err)
	}
	var rows []float64
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows
}

var workerCounts = []int{1, 4, 16}

// TestPredicateKernelsVsReference pins every predicate kernel against
// a naive row loop on seeded-random cohorts (free text and verbatim
// multi-choice spills included), across worker counts and both source
// kinds, selection-exact (row indices, not just counts).
func TestPredicateKernelsVsReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	rng := rand.New(rand.NewSource(31))
	s := quiz.Columns()
	tfCol := s.MustColumnIndex(quiz.CoreQuestions()[0].ID)
	likCol := s.MustColumnIndex("susp.invalid")
	sglCol := s.MustColumnIndex(quiz.BGArea)
	mulCol := s.MustColumnIndex(quiz.BGInformal)

	for _, n := range []int{1, 63, 64, 65, 200, 8192, 8193} {
		d := randomCohort(t, rng, n)
		mem, shard := sources(t, d)
		cases := []struct {
			name  string
			pred  query.Predicate
			match func(i int) bool
		}{
			{"u8eq-true", query.U8Eq{Col: tfCol, Code: colstore.TFTrue},
				func(i int) bool { return d.TF(tfCol, i) == colstore.TFTrue }},
			{"u8eq-unanswered", query.U8Eq{Col: tfCol, Code: colstore.TFUnanswered},
				func(i int) bool { return d.TF(tfCol, i) == colstore.TFUnanswered }},
			{"u8ne-false", query.U8Ne{Col: tfCol, Code: colstore.TFFalse},
				func(i int) bool { return d.TF(tfCol, i) != colstore.TFFalse }},
			{"u8range-2-4", query.U8Range{Col: likCol, Lo: 2, Hi: 4},
				func(i int) bool { lv := d.LikertLevel(likCol, i); return lv >= 2 && lv <= 4 }},
			{"i32set", query.I32SetOf(sglCol, 1, 3),
				func(i int) bool { c := d.SingleCode(sglCol, i); return c == 1 || c == 3 }},
			{"i32set-unanswered", query.I32SetOf(sglCol, 0),
				func(i int) bool { return d.SingleCode(sglCol, i) == 0 }},
			{"i32ne", query.I32Ne{Col: sglCol, Code: 2},
				func(i int) bool { return d.SingleCode(sglCol, i) != 2 }},
			{"u64any", query.U64Any{Col: mulCol, Mask: 0b101},
				func(i int) bool { return effectiveMask(d, mulCol, i)&0b101 != 0 }},
			{"u64all", query.U64All{Col: mulCol, Mask: 0b11},
				func(i int) bool { return effectiveMask(d, mulCol, i)&0b11 == 0b11 }},
			{"conjunction", nil, func(i int) bool {
				return d.TF(tfCol, i) == colstore.TFTrue && effectiveMask(d, mulCol, i)&1 != 0
			}},
		}
		for _, tc := range cases {
			filter := []query.Predicate{tc.pred}
			if tc.pred == nil {
				filter = []query.Predicate{
					query.U8Eq{Col: tfCol, Code: colstore.TFTrue},
					query.U64Any{Col: mulCol, Mask: 1},
				}
			}
			var want []float64
			for i := 0; i < n; i++ {
				if tc.match(i) {
					want = append(want, float64(i))
				}
			}
			for _, w := range workerCounts {
				for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
					got := selectedRows(t, src, filter, w, n)
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d %s %s workers=%d: selection mismatch\n got %v\nwant %v",
							n, tc.name, srcName, w, got, want)
					}
				}
			}
		}
	}
}

// TestGroupedAggregatesVsReference pins Run's grouped count/sum/mean
// against a sequential row loop: single-choice group-by of a Likert
// value and a derived quiz score, empty groups and unanswered rows
// included, bit-identical at every worker count and on both sources.
func TestGroupedAggregatesVsReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	rng := rand.New(rand.NewSource(32))
	s := quiz.Columns()
	keyCi := s.MustColumnIndex(quiz.BGFormalTraining)
	keyCol := s.Column(keyCi)
	likCi := s.MustColumnIndex("susp.overflow")

	for _, n := range []int{17, 9000} {
		d := randomCohort(t, rng, n)
		mem, shard := sources(t, d)
		scoreVal, err := quiz.QueryValue(s, "core.score")
		if err != nil {
			t.Fatalf("QueryValue: %v", err)
		}
		q := query.Query{
			Key:    query.SingleKey{Col: keyCi, Options: keyCol.Options},
			Values: []query.Value{query.LikertValue{Col: likCi}, scoreVal},
		}
		card := len(keyCol.Options) + 2

		wantCount := make([]int64, card)
		wantN := [][]int64{make([]int64, card), make([]int64, card)}
		wantSum := [][]float64{make([]float64, card), make([]float64, card)}
		for i := 0; i < n; i++ {
			k := d.SingleCode(keyCi, i)
			if k < 0 {
				k = int32(card - 1)
			}
			wantCount[k]++
			if lv := d.LikertLevel(likCi, i); lv > 0 {
				wantN[0][k]++
				wantSum[0][k] += float64(lv)
			}
			core, _, _ := quiz.ScoreColumnsAt(d, i)
			wantN[1][k]++
			wantSum[1][k] += float64(core.Correct)
		}

		for _, w := range workerCounts {
			for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
				res, err := query.Run(src, q, w)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !reflect.DeepEqual(res.Count, wantCount) ||
					!reflect.DeepEqual(res.N, wantN) ||
					!reflect.DeepEqual(res.Sum, wantSum) {
					t.Fatalf("n=%d %s workers=%d: grouped aggregates diverge from row loop", n, srcName, w)
				}
				for k := 0; k < card; k++ {
					if res.N[0][k] == 0 && res.Mean(0, k) != 0 {
						t.Fatalf("empty group %d should have mean 0", k)
					}
				}
			}
		}
	}
}

// TestAllFalseSelection pins the degenerate filter: a predicate
// matching nothing yields zero counts and zero sums.
func TestAllFalseSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := randomCohort(t, rng, 500)
	s := d.Schema
	mem, shard := sources(t, d)
	ci := s.MustColumnIndex(quiz.BGArea)
	none := []query.Predicate{query.I32Set{Col: ci, Mask: 0}}
	for _, src := range []query.Source{mem, shard} {
		res, err := query.Run(src, query.Query{
			Filter: none,
			Key:    query.SingleKey{Col: ci, Options: s.Column(ci).Options},
			Values: []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}},
		}, 4)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.TotalCount() != 0 {
			t.Fatalf("all-false filter selected %d rows", res.TotalCount())
		}
		for vi := range res.Sum {
			for k := range res.Sum[vi] {
				if res.Sum[vi][k] != 0 || res.N[vi][k] != 0 {
					t.Fatalf("all-false filter accumulated sums")
				}
			}
		}
	}
}

// TestScanBlocks pins the fused-scan entry point: every block is
// visited exactly once with its global row range, and what each block
// holds is the same at every worker count and between the in-memory
// and streamed sources.
func TestScanBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	rng := rand.New(rand.NewSource(36))
	s := quiz.Columns()
	tfCi := s.MustColumnIndex(quiz.CoreQuestions()[0].ID)
	sglCi := s.MustColumnIndex(quiz.BGRole)
	mulCi := s.MustColumnIndex(quiz.BGInformal)
	cols := []int{tfCi, sglCi, mulCi}
	// At least one block per worker of the widest leg, plus a tail.
	const n = 16*query.BlockRows + 77
	d := randomCohort(t, rng, n)
	mem, shard := sources(t, d)

	type blockSum struct{ lo, n, tf, sgl, mul, patches int64 }
	var want []blockSum
	for _, w := range workerCounts {
		for _, src := range []query.Source{mem, shard} {
			visits := make([]atomic.Int32, query.NumBlocks(n))
			got := make([]blockSum, query.NumBlocks(n))
			err := query.ScanBlocks(src, cols, w, func(b int, blk *query.Block) {
				visits[b].Add(1)
				bs := blockSum{lo: int64(blk.Lo), n: int64(blk.N)}
				for _, v := range blk.U8(tfCi) {
					bs.tf += int64(v)
				}
				for _, v := range blk.I32(sglCi) {
					bs.sgl += int64(v)
				}
				for _, v := range blk.U64(mulCi) {
					bs.mul += int64(v)
				}
				for _, p := range blk.Patches(mulCi) {
					bs.patches += int64(p.Row) + int64(p.Mask)
				}
				got[b] = bs
			})
			if err != nil {
				t.Fatalf("ScanBlocks: %v", err)
			}
			rows := int64(0)
			for b := range visits {
				if v := visits[b].Load(); v != 1 {
					t.Fatalf("workers=%d: block %d visited %d times", w, b, v)
				}
				if got[b].lo != int64(b*query.BlockRows) {
					t.Fatalf("workers=%d: block %d starts at row %d", w, b, got[b].lo)
				}
				rows += got[b].n
			}
			if rows != n {
				t.Fatalf("workers=%d: blocks cover %d rows, want %d", w, rows, n)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: block contents differ across workers or sources", w)
			}
		}
	}
}

// TestEmptyCohort pins the n=0 edge: zero blocks, zero counts, no
// panics.
func TestEmptyCohort(t *testing.T) {
	src := query.NewDatasetSource(quiz.Columns().NewDataset("1.0", 0))
	res, err := query.Run(src, query.Query{}, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalCount() != 0 {
		t.Fatalf("empty cohort counted %d rows", res.TotalCount())
	}
}

// TestBitmap pins the selection bitmap primitives, including tail
// masking at non-multiple-of-64 lengths.
func TestBitmap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 8192} {
		m := query.NewBitmap(n)
		if m.Count() != n {
			t.Fatalf("fresh bitmap n=%d counts %d", n, m.Count())
		}
		for j := 0; j < n; j++ {
			if !m.Test(j) {
				t.Fatalf("fresh bitmap n=%d: row %d not selected", n, j)
			}
		}
	}
	// Reuse shrinks and regrows cleanly.
	m := query.NewBitmap(130)
	m.Reset(7)
	if m.Len() != 7 || m.Count() != 7 {
		t.Fatalf("reset to 7: len=%d count=%d", m.Len(), m.Count())
	}
	if m.Test(6) != true {
		t.Fatalf("row 6 should be selected")
	}
}
