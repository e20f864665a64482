package query_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
)

// TestParseCompilesAndRuns pins the expression grammar end to end:
// each expression compiles and evaluates identically to the
// hand-built query it documents.
func TestParseCompilesAndRuns(t *testing.T) {
	s := quiz.Columns()
	d := randomCohort(t, rand.New(rand.NewSource(41)), 2000)
	src := query.NewDatasetSource(d)
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(s, name) }

	cases := []struct {
		expr string
		want query.Query
		agg  query.Agg
	}{
		{"//count", query.Query{}, query.AggCount},
		{"bg.formal_training=None//count",
			query.Query{Filter: []query.Predicate{
				query.I32SetOf(s.MustColumnIndex(quiz.BGFormalTraining),
					s.Column(s.MustColumnIndex(quiz.BGFormalTraining)).MustOptionCode("None"))}},
			query.AggCount},
		{"susp.invalid>=4/bg.contrib_size/count",
			query.Query{
				Filter: []query.Predicate{query.U8Range{Col: s.MustColumnIndex("susp.invalid"), Lo: 4, Hi: 5}},
				Key: query.SingleKey{Col: s.MustColumnIndex(quiz.BGContribSize),
					Options: s.Column(s.MustColumnIndex(quiz.BGContribSize)).Options}},
			query.AggCount},
		{"/bg.formal_training/mean:susp.invalid",
			query.Query{
				Key: query.SingleKey{Col: s.MustColumnIndex(quiz.BGFormalTraining),
					Options: s.Column(s.MustColumnIndex(quiz.BGFormalTraining)).Options},
				Values: []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}}},
			query.AggMean},
	}
	for _, tc := range cases {
		p, err := query.Parse(s, tc.expr, resolve)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.expr, err)
		}
		if p.Agg != tc.agg {
			t.Fatalf("Parse(%q): agg %v, want %v", tc.expr, p.Agg, tc.agg)
		}
		got, err := query.Run(src, p.Query, 4)
		if err != nil {
			t.Fatalf("Run(%q): %v", tc.expr, err)
		}
		want, err := query.Run(src, tc.want, 4)
		if err != nil {
			t.Fatalf("Run(reference for %q): %v", tc.expr, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Parse(%q) evaluates differently from its hand-built query", tc.expr)
		}
	}

	// Derived quiz values resolve through the caller's resolver.
	p, err := query.Parse(s, "/bg.formal_training/mean:core.score", resolve)
	if err != nil {
		t.Fatalf("Parse core.score: %v", err)
	}
	if p.ValueName != "core.score" {
		t.Fatalf("ValueName = %q", p.ValueName)
	}
	if _, err := query.Run(src, p.Query, 4); err != nil {
		t.Fatalf("Run core.score: %v", err)
	}

	// Worked cross-factor example from the grammar doc.
	cross := "bg.formal_training!=None & bg.role=My main role is as a software engineer/bg.contrib_size/count"
	if _, err := query.Parse(s, cross, nil); err != nil {
		t.Fatalf("Parse(%q): %v", cross, err)
	}

	// Multi-choice alternation builds the right test masks.
	opts := s.Column(s.MustColumnIndex(quiz.BGInformal)).Options
	any := fmt.Sprintf("bg.informal_training~%s|%s//count", opts[0], opts[2])
	pAny, err := query.Parse(s, any, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", any, err)
	}
	if pred, ok := pAny.Query.Filter[0].(query.U64Any); !ok || pred.Mask != 0b101 {
		t.Fatalf("Parse(%q): predicate %#v, want U64Any mask 0b101", any, pAny.Query.Filter[0])
	}
	all := fmt.Sprintf("bg.informal_training~=%s//count", opts[1])
	pAll, err := query.Parse(s, all, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", all, err)
	}
	if pred, ok := pAll.Query.Filter[0].(query.U64All); !ok || pred.Mask != 0b10 {
		t.Fatalf("Parse(%q): predicate %#v, want U64All mask 0b10", all, pAll.Query.Filter[0])
	}
}

// TestParseErrors pins the grammar's error surface.
func TestParseErrors(t *testing.T) {
	s := quiz.Columns()
	cases := []struct {
		expr, wantSub string
	}{
		{"//", "unknown aggregate"},
		{"count", "filter/groupby/agg"},
		{"//median:x", "unknown aggregate"},
		{"//mean:nope", "unknown aggregate value"},
		{"//mean:bg.area", "only Likert"},
		{"nope=1//count", "unknown question"},
		{"/nope/count", "unknown group-by"},
		{"/bg.informal_training/count", "multi-choice"},
		{"susp.invalid//count", "no operator"},
		{"susp.invalid=9//count", "want a level 1..5"},
		{"susp.invalid~3//count", "not defined"},
		{"bg.area=Not An Option//count", "no option"},
		{"bg.area!=A|B//count", "takes a single label"},
		{"bg.informal_training=Read about it//count", "~ (any selected)"},
		{"core.identity=maybe//count", "want true, false"},
		{"core.identity>=true//count", "not defined"},
	}
	for _, tc := range cases {
		_, err := query.Parse(s, tc.expr, nil)
		if err == nil {
			t.Fatalf("Parse(%q): expected error", tc.expr)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Parse(%q): error %q lacks %q", tc.expr, err, tc.wantSub)
		}
	}
}

// FuzzParse requires Parse to return an error or a compiled query for
// any expression against the paper's schema, and never to panic.
func FuzzParse(f *testing.F) {
	s := quiz.Columns()
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(s, name) }
	for _, expr := range []string{
		"//count", "bg.formal_training=None//count", "susp.invalid>=4/bg.contrib_size/count",
		"/bg.formal_training/mean:susp.invalid", "/bg.formal_training/mean:core.score",
		"bg.formal_training!=None & bg.role=My main role is as a software engineer/bg.contrib_size/count",
		"bg.informal_training~=Read about it//count", "//", "count", "//median:x",
		"susp.invalid~3//count", "bg.area!=A|B//count", "core.identity>=true//count",
	} {
		f.Add(expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		p, err := query.Parse(s, expr, resolve)
		if err == nil && p == nil {
			t.Fatalf("Parse(%q) returned neither a query nor an error", expr)
		}
	})
}
