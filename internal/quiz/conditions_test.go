package quiz

import "testing"

func TestGroundTruthRanking(t *testing.T) {
	// Invalid >> Overflow >> {Underflow, Denorm} >= Precision.
	if !(Invalid.GroundTruthSuspicion() > Overflow.GroundTruthSuspicion()) {
		t.Fatal("invalid should outrank overflow")
	}
	if !(Overflow.GroundTruthSuspicion() > Underflow.GroundTruthSuspicion()) {
		t.Fatal("overflow should outrank underflow")
	}
	if !(Underflow.GroundTruthSuspicion() >= Precision.GroundTruthSuspicion()) {
		t.Fatal("underflow should not rank below precision")
	}
}

func TestConditionsOrderMatchesPaper(t *testing.T) {
	want := []string{"Overflow", "Underflow", "Precision", "Invalid", "Denorm"}
	for i, c := range Conditions() {
		if c.String() != want[i] {
			t.Fatalf("condition %d = %v, want %v", i, c, want[i])
		}
	}
}
