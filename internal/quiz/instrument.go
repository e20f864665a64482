package quiz

import (
	"fpstudy/internal/paperdata"
	"fpstudy/internal/survey"
)

// Background question IDs.
const (
	BGPosition       = "bg.position"
	BGArea           = "bg.area"
	BGFormalTraining = "bg.formal_training"
	BGInformal       = "bg.informal_training"
	BGRole           = "bg.role"
	BGFPLanguages    = "bg.fp_languages"
	BGArbPrec        = "bg.arbprec_languages"
	BGContribSize    = "bg.contrib_size"
	BGContribExtent  = "bg.contrib_extent"
	BGInvolvedSize   = "bg.involved_size"
	BGInvolvedExtent = "bg.involved_extent"
)

// SuspicionItem is one condition of the suspicion quiz.
type SuspicionItem struct {
	ID        string
	Condition Condition
	Prompt    string
}

// SuspicionItems returns the five suspicion-quiz items in the paper's
// order, each tied to its Condition (whose GroundTruthSuspicion provides
// the paper's "arguably reasonable ranking").
func SuspicionItems() []SuspicionItem {
	mk := func(c Condition, what string) SuspicionItem {
		return SuspicionItem{
			ID:        "susp." + lower(c.String()),
			Condition: c,
			Prompt: "A wrapper around a scientific simulation reports that at some point during the run, " +
				what + " How suspicious would this make you of the simulation's results?",
		}
	}
	return []SuspicionItem{
		mk(Overflow, "the result of an operation was an infinity."),
		mk(Underflow, "the result of an operation was a zero because it was too small to represent."),
		mk(Precision, "the result of an operation required rounding and thus lost precision."),
		mk(Invalid, "the result of an operation was not a number at all (an invalid result)."),
		mk(Denorm, "the result of an operation was a tiny number with reduced precision."),
	}
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// options extracts the labels of a paperdata table for use as survey
// options.
func options(entries []paperdata.CountEntry) []string {
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Label)
	}
	return out
}

// Instrument assembles the paper's full survey: background, core quiz,
// optimization quiz, suspicion quiz.
func Instrument() *survey.Instrument {
	bg := survey.Section{
		ID:    "background",
		Title: "Background",
		Description: "Self-identified information about your background, software development " +
			"experience, and interaction with floating point. All responses are anonymous.",
		Questions: []survey.Question{
			{ID: BGPosition, Prompt: "What is your current position?", Kind: survey.SingleChoice,
				Options: options(paperdata.Figure1Positions), AllowOther: true},
			{ID: BGArea, Prompt: "What is your area of formal training?", Kind: survey.SingleChoice,
				Options: options(paperdata.Figure2Areas), AllowOther: true},
			{ID: BGFormalTraining, Prompt: "How much formal training about floating point have you received?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure3FormalTraining)},
			{ID: BGInformal, Prompt: "What kinds of informal training about floating point have you used?",
				Kind: survey.MultiChoice, Options: options(paperdata.Figure4InformalTraining), AllowOther: true},
			{ID: BGRole, Prompt: "How do you view the software development you perform?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure5Roles)},
			{ID: BGFPLanguages, Prompt: "In which languages have you used floating point?",
				Kind: survey.MultiChoice, Options: options(paperdata.Figure6FPLanguages), AllowOther: true},
			{ID: BGArbPrec, Prompt: "Which languages/libraries supporting arbitrary precision numbers have you used?",
				Kind: survey.MultiChoice, Options: options(paperdata.Figure7ArbPrec), AllowOther: true},
			{ID: BGContribSize, Prompt: "How many lines of code was the largest codebase you built, or your largest contribution to a shared codebase?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure8ContribSize)},
			{ID: BGContribExtent, Prompt: "To what extent was floating point involved in that codebase and your work within it?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure9ContribExtent)},
			{ID: BGInvolvedSize, Prompt: "How many lines of code was the largest codebase you have been involved with in any capacity?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure10InvolvedSize)},
			{ID: BGInvolvedExtent, Prompt: "To what extent was floating point involved in that codebase and your work within it?",
				Kind: survey.SingleChoice, Options: options(paperdata.Figure11InvolvedExtent)},
		},
	}

	core := survey.Section{
		ID:    "core",
		Title: "Core quiz",
		Description: "Each question shows a snippet of code in C syntax (C++, C#, and Java are identical " +
			"for these snippets) and makes an assertion. Choose whether the assertion is true or false, " +
			"or answer \"I don't know.\"",
	}
	for _, q := range CoreQuestions() {
		core.Questions = append(core.Questions, survey.Question{
			ID:     q.ID,
			Prompt: q.Snippet + "\n\n" + q.Prompt,
			Kind:   survey.TrueFalse,
		})
	}

	opt := survey.Section{
		ID:    "optimization",
		Title: "Optimization quiz",
		Description: "These questions concern compiler optimizations and hardware features that may go " +
			"beyond the floating point standard.",
	}
	for _, q := range OptQuestions() {
		sq := survey.Question{ID: q.ID, Prompt: q.Prompt, Kind: survey.TrueFalse}
		if !q.IsTrueFalse() {
			sq.Kind = survey.SingleChoice
			// "I don't know" is an explicit option on the choice
			// question (and the dominant answer in the paper's data).
			sq.Options = append(append([]string{}, q.Choices...), survey.AnswerDontKnow)
		}
		opt.Questions = append(opt.Questions, sq)
	}

	susp := survey.Section{
		ID:    "suspicion",
		Title: "Suspicion quiz",
		Description: "Imagine a scientific simulation wrapped with code that determines whether any of " +
			"the following conditions occurred one or more times during execution. For each condition, " +
			"rate how suspicious its occurrence would make you of the simulation results " +
			"(1 = not suspicious at all, 5 = extremely suspicious). There are no wrong answers.",
	}
	for _, it := range SuspicionItems() {
		susp.Questions = append(susp.Questions, survey.Question{
			ID: it.ID, Prompt: it.Prompt, Kind: survey.Likert, Scale: 5,
		})
	}

	return &survey.Instrument{
		Title:    "Do Developers Understand IEEE Floating Point?",
		Version:  "1.0",
		Sections: []survey.Section{bg, core, opt, susp},
	}
}
