package fpstudy_test

// Integration tests of the public facade: everything a downstream user
// does goes through these entry points.

import (
	"bytes"
	"testing"

	"fpstudy"
	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
)

func TestFacadeArithmetic(t *testing.T) {
	var e fpstudy.Env
	a := fpstudy.Binary64.FromFloat64(&e, 0.1)
	b := fpstudy.Binary64.FromFloat64(&e, 0.2)
	sum := fpstudy.Binary64.Add(&e, a, b)
	// Note: Go folds the constant expression 0.1+0.2 exactly (to 0.3
	// rounded once); runtime IEEE addition gives 0.30000000000000004.
	// The softfloat models the runtime, so compare against variables.
	x, y := 0.1, 0.2
	if got := fpstudy.Binary64.ToFloat64(sum); got != x+y {
		t.Fatalf("0.1+0.2 = %v", got)
	}
	if !e.Flags.Has(fpstudy.FlagInexact) {
		t.Fatal("no inexact flag")
	}
	n := fpstudy.N(fpstudy.Binary32, 2)
	if n.Sqrt(&e).Float64() != float64(float32(1.4142135)) {
		t.Logf("sqrt(2) binary32 = %v", n.Sqrt(&e).Float64())
	}
}

func TestFacadeQuizOracles(t *testing.T) {
	core := fpstudy.CoreQuestions()
	if len(core) != 15 {
		t.Fatalf("%d core questions", len(core))
	}
	trueCount := 0
	for _, q := range core {
		row, ok := fpstudy.RunOracle(q.ID)
		if !ok {
			t.Fatalf("%s has no oracle", q.ID)
		}
		if row.Answer == "true" {
			trueCount++
		}
	}
	// The paper's key has 7 true assertions (commutativity, square,
	// divide-by-zero, both saturations, denormal precision, operation
	// precision) and 8 false ones.
	if trueCount != 7 {
		t.Fatalf("%d true assertions, want 7", trueCount)
	}
	if len(fpstudy.OptQuestions()) != 4 {
		t.Fatal("opt question count")
	}
}

func TestFacadeStudyPipeline(t *testing.T) {
	results := fpstudy.Study{Seed: 11, NMain: 150, NStudent: 40}.Run()
	figs := results.AllFigures()
	if len(figs) != 22 {
		t.Fatalf("%d figures", len(figs))
	}
	claims := results.HeadlineClaims()
	if len(claims) < 10 {
		t.Fatalf("%d claims", len(claims))
	}
	// Scoring via facade.
	core, _ := results.Tallies()
	if len(core) != 150 || core[0].Total() != 15 {
		t.Fatalf("%d tallies, respondent 0 total %d", len(core), core[0].Total())
	}
}

func TestFacadeComplianceAndMonitor(t *testing.T) {
	n, err := fpstudy.ParseExpr("a*b + c")
	if err != nil {
		t.Fatal(err)
	}
	v := fpstudy.CheckCompliance(fpstudy.Binary64, n, fpstudy.OptForLevel(3), 2000, 5)
	if v.Compliant {
		t.Fatal("-O3 compliant on a*b+c!?")
	}
}

func TestFacadeInstrument(t *testing.T) {
	ins := fpstudy.Instrument()
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndDatasetPipeline(t *testing.T) {
	// The full data path a real deployment uses: generate responses,
	// serialize to JSON, read them back, convert to FPDS and back,
	// anonymize, and re-grade. The cohort's columns carry the encoders;
	// the decoders are package functions of internal/colstore.
	pop := fpstudy.GenerateMain(99, 120)
	var js bytes.Buffer
	if err := pop.Cols.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := colstore.DecodeJSON(quiz.Columns(), bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := fromJSON.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := colstore.DecodeBinary(quiz.Columns(), &bin, colstore.IOOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back.Anonymize()
	if back.Len() != 120 || back.Token(119) != "r0120" {
		t.Fatalf("%d respondents, last token %q", back.Len(), back.Token(119))
	}
	// Re-score the round-tripped data: identical tallies.
	want, got := quiz.ScoreAllColumns(pop.Cols, 0), quiz.ScoreAllColumns(back, 0)
	for i := range want.Core {
		if want.Core[i] != got.Core[i] || want.OptAll[i] != got.OptAll[i] {
			t.Fatalf("response %d tally changed through serialization", i)
		}
	}
}

func TestFacadeBfloat16(t *testing.T) {
	var e fpstudy.Env
	x := fpstudy.Bfloat16.FromFloat64(&e, 256)
	one := fpstudy.Bfloat16.FromFloat64(&e, 1)
	if r := fpstudy.Bfloat16.Add(&e, x, one); r != x {
		t.Fatal("bfloat16 should absorb 1 at 256")
	}
}
