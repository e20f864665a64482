package oracle

import (
	"testing"

	"fpstudy/internal/quiz"
)

// TestKeyMatchesOracles re-runs every question's oracle and requires
// the checked-in answer-key table to hold exactly what it derives: in
// every row the same answer, witness, flag set and host-FPU mark. The
// quiz package's TestAnswerKeyRows pins the table's rows and their
// order to the questions. A failure means the table is stale: run
// `go generate ./internal/quiz`.
func TestKeyMatchesOracles(t *testing.T) {
	derived := Key()
	if len(derived) != 19 {
		t.Fatalf("oracles derive %d rows, want 19", len(derived))
	}
	for _, want := range derived {
		got, ok := quiz.KeyFor(want.ID)
		if !ok {
			t.Errorf("%s: no row in the table", want.ID)
			continue
		}
		if got.Answer != want.Answer {
			t.Errorf("%s: table answer %q, oracle derives %q", want.ID, got.Answer, want.Answer)
		}
		if got.Witness != want.Witness {
			t.Errorf("%s: table witness %q, oracle derives %q", want.ID, got.Witness, want.Witness)
		}
		if got.Flags != want.Flags {
			t.Errorf("%s: table flags %v, oracle raised %v", want.ID, got.Flags, want.Flags)
		}
		if got.HostFPU != want.HostFPU {
			t.Errorf("%s: table HostFPU %v, oracle %v", want.ID, got.HostFPU, want.HostFPU)
		}
	}
}

// TestRunUnknownID: a question ID without an oracle is reported, not
// run, and every question has exactly one oracle.
func TestRunUnknownID(t *testing.T) {
	if _, ok := Run("core.nosuch"); ok {
		t.Error("Run found an oracle for an unknown ID")
	}
	if n := len(questionIDs()); len(oracles) != n {
		t.Errorf("%d oracles for %d questions", len(oracles), n)
	}
}

// BenchmarkRun times each question's oracle: the derivation cost that
// TestKeyMatchesOracles and `go generate ./internal/quiz` pay, and no
// run path does.
func BenchmarkRun(b *testing.B) {
	for _, id := range questionIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(id)
			}
		})
	}
}
