package quiz

// OptQuestion is one question of the optimization quiz. Three are
// true/false(/don't know); Standard-compliant Level is a single choice
// among optimization levels (and is excluded from chance computations,
// as in the paper's Figure 12).
type OptQuestion struct {
	ID     string
	Label  string
	Prompt string
	// Choices lists the options of the single-choice question; empty for
	// true/false questions.
	Choices []string
}

// IsTrueFalse reports whether the question is scored as T/F.
func (q OptQuestion) IsTrueFalse() bool { return len(q.Choices) == 0 }

// CorrectAnswer returns the survey answer string for a perfectly
// informed participant, from the answer key: "true" or "false", or the
// right option of the choice question.
func (q OptQuestion) CorrectAnswer() string { return OptAnswer(q.ID) }

// LevelChoices are the options for the Standard-compliant Level
// question.
var LevelChoices = []string{"-O0", "-O1", "-O2", "-O3"}

// OptQuestions returns the four optimization quiz questions in the
// paper's order.
func OptQuestions() []OptQuestion {
	return []OptQuestion{
		{
			ID:    "opt.madd",
			Label: "MADD",
			Prompt: "Some processors provide an instruction that computes x*y + z in a single step with a single rounding at the end. " +
				"Using this instruction always produces the same results as a separate multiplication followed by an addition, " +
				"and it was included in the original (1985) floating point standard.",
		},
		{
			ID:    "opt.ftz",
			Label: "Flush to Zero",
			Prompt: "Some processors have a mode that replaces very small intermediate results with zero for speed " +
				"(and treats very small inputs as zero). Computing in this mode still complies with the floating point standard.",
		},
		{
			// The key's -O2 is the paper's answer under optsim's
			// modelling assumption (ContractFMA from -O3 on), not a
			// derivation from a real compiler; see opt.level in
			// internal/oracle.
			ID:    "opt.level",
			Label: "Standard-compliant Level",
			Prompt: "Typical compilers offer optimization levels -O0 through -O3. " +
				"Which is generally the highest level that still preserves standard-compliant floating point behavior?",
			Choices: LevelChoices,
		},
		{
			ID:    "opt.fastmath",
			Label: "Fast-math",
			Prompt: "Compilers offer a fast-math option (e.g. --ffast-math) enabling aggressive floating point optimizations. " +
				"Using it can cause the program's floating point behavior to no longer comply with the standard.",
		},
	}
}
