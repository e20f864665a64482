package quiz

import (
	"testing"

	"fpstudy/internal/ieee754"
)

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
	flags := []ieee754.Flags{ieee754.FlagOverflow, ieee754.FlagUnderflow,
		ieee754.FlagInexact, ieee754.FlagInvalid, ieee754.FlagDenormal}
	for i, c := range Conditions() {
		if c.String() != want[i] {
			t.Fatalf("condition %d = %v, want %v", i, c, want[i])
		}
		if c.Flag() != flags[i] {
			t.Errorf("%s maps to flag %v, want %v", c, c.Flag(), flags[i])
		}
	}
}
