package fpstudy_test

// Integration tests of the public facade: everything a downstream user
// does goes through these entry points.

import (
	"strings"
	"testing"

	"fpstudy"
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
		if q.Oracle().Holds {
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
	tally := fpstudy.ScoreCore(results.Main.Cols.Response(0))
	if tally.Total() != 15 {
		t.Fatalf("tally total %d", tally.Total())
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
	// serialize, deserialize, validate against the instrument,
	// anonymize, flatten, and re-analyze.
	pop := fpstudy.GenerateMain(99, 120)
	ins := fpstudy.Instrument()

	data, err := fpstudy.EncodeDataset(pop.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fpstudy.DecodeDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.ValidateDataset(back); err != nil {
		t.Fatal(err)
	}
	back.Anonymize()
	csv := ins.FlattenCSV(back)
	if lines := strings.Count(csv, "\n"); lines != 121 { // header + 120
		t.Fatalf("CSV lines: %d", lines)
	}
	// Re-score the round-tripped data: identical tallies.
	for i := range pop.Dataset.Responses {
		a := fpstudy.ScoreCore(pop.Dataset.Responses[i])
		b := fpstudy.ScoreCore(back.Responses[i])
		if a != b {
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
