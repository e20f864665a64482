package core

import (
	"strings"
	"testing"

	"fpstudy/internal/quiz"
)

func TestConfidenceReport(t *testing.T) {
	tab := bigResults.ConfidenceReport()
	s := tab.String()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if !strings.Contains(s, "coin flip") || !strings.Contains(s, "correlation") {
		t.Fatalf("report:\n%s", s)
	}
}

func TestOverconfidenceIndex(t *testing.T) {
	// The paper's population: ~85% commitment, ~68% accuracy among
	// committed answers -> clearly positive overconfidence.
	idx := bigResults.OverconfidenceIndex()
	if idx < 0.05 {
		t.Fatalf("overconfidence index %.3f, expected clearly positive", idx)
	}
	if idx > 0.5 {
		t.Fatalf("overconfidence index %.3f implausibly large", idx)
	}
}

func TestOptHumilityIndex(t *testing.T) {
	// On the optimization quiz the population is appropriately humble:
	// most scored questions are punted.
	idx := bigResults.OptHumilityIndex()
	if idx < 0.55 {
		t.Fatalf("opt humility %.3f, paper has >2/3 don't-know", idx)
	}
	// And humility on optimizations exceeds core-quiz hedging by a
	// wide margin — the paper's contrast between the two quizzes.
	p, err := bigResults.mainPlan()
	if err != nil {
		t.Fatal(err)
	}
	var coreDK float64
	for _, q := range p.coreQ {
		coreDK += float64(q[quiz.OutcomeDontKnow])
	}
	coreDK /= float64(15 * p.n)
	if idx < coreDK*2 {
		t.Fatalf("opt humility %.2f should dwarf core DK rate %.2f", idx, coreDK)
	}
}
