// Package quiz defines the paper's concrete survey instrument: the
// background questionnaire, the 15-question core quiz, the 4-question
// optimization quiz, and the 5-item suspicion quiz.
//
// Grading reads a checked-in answer key (key_gen.go): one row per quiz
// question with its answer, a witness string and the exception flags
// the witness raised. `go generate` derives that table by running each
// question's oracle in package internal/oracle — the ieee754 softfloat
// and, for the optimization quiz, the optsim compiler model — and the
// oracle package's test re-derives every row, so the key is still
// computed, not written by hand; only the time the oracles run moves
// off the run path.
package quiz

// CoreQuestion is one assertion of the core quiz.
type CoreQuestion struct {
	// ID is the stable question identifier ("core.commutativity").
	ID string
	// Label is the paper's name for the question.
	Label string
	// Prompt is the participant-facing assertion, phrased (per the
	// paper's design) without IEEE terminology to avoid prompting.
	Prompt string
	// Snippet is the C-syntax code fragment the assertion refers to.
	Snippet string
}

// CorrectAnswer returns the survey answer string a perfectly informed
// participant gives, from the answer key.
func (q CoreQuestion) CorrectAnswer() string { return CoreAnswer(q.ID) }

// CoreQuestions returns the 15 core quiz questions in the paper's
// order.
func CoreQuestions() []CoreQuestion {
	return []CoreQuestion{
		{
			ID:      "core.commutativity",
			Label:   "Commutativity",
			Prompt:  "Assuming x and y hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y;\nassert(x + y == y + x);",
		},
		{
			ID:      "core.associativity",
			Label:   "Associativity",
			Prompt:  "Assuming x, y, and z hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y, z;\nassert((x + y) + z == x + (y + z));",
		},
		{
			ID:      "core.distributivity",
			Label:   "Distributivity",
			Prompt:  "Assuming x, y, and z hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y, z;\nassert(x*(y + z) == x*y + x*z);",
		},
		{
			ID:      "core.ordering",
			Label:   "Ordering",
			Prompt:  "Assuming x and y hold values that are not the result of invalid operations, the assertion never fails.",
			Snippet: "double x, y;\nassert((x + y) - x == y);",
		},
		{
			ID:      "core.identity",
			Label:   "Identity",
			Prompt:  "Whatever value x holds, the assertion never fails.",
			Snippet: "double x;\nassert(x == x);",
		},
		{
			ID:      "core.negzero",
			Label:   "Negative Zero",
			Prompt:  "It is possible for x and y to both hold zero values and yet the assertion fails.",
			Snippet: "double x = /* a zero */, y = /* a zero */;\nassert(x == y);",
		},
		{
			ID:      "core.square",
			Label:   "Square",
			Prompt:  "Assuming x holds a value that is not the result of an invalid operation, the assertion never fails.",
			Snippet: "double x;\nassert(x*x >= 0.0);",
		},
		{
			ID:      "core.overflow",
			Label:   "Overflow",
			Prompt:  "When a computation on large positive values exceeds the largest representable value, the result wraps around to the negative range, as in integer arithmetic.",
			Snippet: "double x = DBL_MAX;\nx = x * 2.0;\n/* x is now negative */",
		},
		{
			ID:      "core.divzero",
			Label:   "Divide By Zero",
			Prompt:  "After this statement executes, x holds a value that is not the result of an invalid operation (i.e., arithmetic on it behaves like arithmetic on an ordinary value).",
			Snippet: "double x = 1.0/0.0;",
		},
		{
			ID:      "core.zerodivzero",
			Label:   "Zero Divide By Zero",
			Prompt:  "After this statement executes, x holds a value that is not the result of an invalid operation.",
			Snippet: "double x = 0.0/0.0;",
		},
		{
			ID:      "core.satplus",
			Label:   "Saturation Plus",
			Prompt:  "It is possible for x to hold a value such that the assertion fails.",
			Snippet: "double x;\nassert(x + 1.0 != x);",
		},
		{
			ID:      "core.satminus",
			Label:   "Saturation Minus",
			Prompt:  "It is possible for x to hold a value such that the assertion fails.",
			Snippet: "double x;\nassert(x - 1.0 != x);",
		},
		{
			ID:      "core.denormprec",
			Label:   "Denormal Precision",
			Prompt:  "Representable values very close to zero have fewer significant digits available than values further from zero.",
			Snippet: "double x = 1e-310; /* vs. */ double y = 1e-300;",
		},
		{
			ID:      "core.opprec",
			Label:   "Operation Precision",
			Prompt:  "The result of an arithmetic operation can have less precision (fewer correct significant digits) than either of its operands.",
			Snippet: "double z = x + y; /* z may be less precise than x or y */",
		},
		{
			ID:      "core.sigexc",
			Label:   "Exception Signal",
			Prompt:  "If any operation in a program produces an exceptional result (such as the result of dividing by zero or an invalid operation), the program is informed by default, e.g. via a signal that terminates it.",
			Snippet: "double x = 0.0/0.0; /* program receives SIGFPE here? */",
		},
	}
}
