package quiz

import "fpstudy/internal/ieee754"

//go:generate go run ../../scripts/genkey.go

// KeyRow is one question's row of the answer key.
type KeyRow struct {
	// ID is the question's stable identifier ("core.commutativity").
	ID string
	// Answer is the survey answer a perfectly informed participant
	// gives: "true" or "false", or the right option of the
	// Standard-compliant Level question.
	Answer string
	// Witness explains the answer: a counterexample for a false
	// assertion, a check summary for a true one.
	Witness string
	// Flags are the exception flags the witness computation raised in
	// its softfloat environment; for an optimization-model row, those
	// of the strict evaluation of the witness inputs. They say which
	// exceptions the answer rests on.
	Flags ieee754.Flags
	// HostFPU marks a row whose witness was computed on the host FPU
	// rather than the softfloat; its Flags are empty.
	HostFPU bool
}

// KeyFor returns the answer-key row of the question with the given ID.
// The rows come from a table that `go generate` derives by running
// every question's oracle (package internal/oracle, through
// scripts/genkey.go); the oracle package's test re-runs them and fails
// on any difference from the table.
func KeyFor(id string) (KeyRow, bool) {
	for _, r := range answerKey[:] {
		if r.ID == id {
			return r, true
		}
	}
	return KeyRow{}, false
}
