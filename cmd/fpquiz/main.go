// Command fpquiz administers the paper's floating point quiz at the
// terminal and grades the answers against the answer key. It can also
// print the whole key: every answer with its witness and the exception
// flags the witness raised, as the oracles in internal/oracle derived
// them (the key is a table that `go generate ./internal/quiz`
// regenerates from those oracles).
//
// Usage:
//
//	fpquiz              # take the quiz interactively
//	fpquiz -answers     # print every question with its answer key row
//	fpquiz -section core|opt|all
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

func main() {
	answers := flag.Bool("answers", false, "print the answer key with witnesses and flags, and exit")
	section := flag.String("section", "all", "which quiz to run: core, opt, or all")
	flag.Parse()
	switch *section {
	case "core", "opt", "all":
	default:
		fmt.Fprintf(os.Stderr, "fpquiz: -section must be core, opt or all, not %q\n", *section)
		fmt.Fprintln(os.Stderr, "usage: fpquiz [-answers] [-section core|opt|all]")
		os.Exit(2)
	}

	if *answers {
		printAnswerKey(*section)
		return
	}
	runInteractive(*section)
}

func printAnswerKey(section string) {
	if section == "core" || section == "all" {
		fmt.Println("Core quiz answer key (every answer derived by executing IEEE semantics)")
		fmt.Println(strings.Repeat("=", 72))
		for i, q := range quiz.CoreQuestions() {
			fmt.Printf("\n%2d. %s\n", i+1, q.Label)
			fmt.Printf("    %s\n", indent(q.Snippet, "    "))
			fmt.Printf("    Assertion: %s\n", q.Prompt)
			printKeyRow(q.ID)
		}
	}
	if section == "opt" || section == "all" {
		fmt.Println("\nOptimization quiz answer key")
		fmt.Println(strings.Repeat("=", 72))
		for i, q := range quiz.OptQuestions() {
			fmt.Printf("\n%2d. %s\n", i+1, q.Label)
			fmt.Printf("    %s\n", q.Prompt)
			printKeyRow(q.ID)
		}
	}
}

// printKeyRow prints a question's answer, witness and flags.
func printKeyRow(id string) {
	r, _ := quiz.KeyFor(id)
	fmt.Printf("    Answer: %s\n", r.Answer)
	fmt.Printf("    Why: %s\n", r.Witness)
	if r.HostFPU {
		fmt.Println("    Flags: none (computed on the host FPU)")
	} else {
		fmt.Printf("    Flags: %s\n", r.Flags)
	}
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}

// runInteractive asks the chosen sections at the terminal, stores the
// answers in a one-respondent columnar dataset and grades it with the
// tables the figures use.
func runInteractive(section string) {
	in := bufio.NewScanner(os.Stdin)
	schema := quiz.Columns()
	you := schema.NewDataset("1.0", 1)
	answer := func(id, choice string) {
		if err := you.SetAnswer(schema.MustColumnIndex(id), 0, survey.Answer{Choice: choice}); err != nil {
			panic(err) // every choice stored here is one the column accepts
		}
	}

	ask := func(prompt string, options []string) string {
		fmt.Println()
		fmt.Println(prompt)
		fmt.Printf("[%s] > ", strings.Join(options, "/"))
		if !in.Scan() {
			return ""
		}
		return strings.ToLower(strings.TrimSpace(in.Text()))
	}
	askTF := func(id, prompt string) {
		switch ask(prompt, []string{"t", "f", "d"}) {
		case "t", "true":
			answer(id, survey.AnswerTrue)
		case "f", "false":
			answer(id, survey.AnswerFalse)
		case "d", "dk":
			answer(id, survey.AnswerDontKnow)
		}
	}

	if section == "core" || section == "all" {
		fmt.Println("Core quiz: for each code snippet, is the assertion true or false?")
		fmt.Println("(t = true, f = false, d = don't know, enter = skip)")
		for i, q := range quiz.CoreQuestions() {
			askTF(q.ID, fmt.Sprintf("%d/%d\n%s\n%s", i+1, 15, q.Snippet, q.Prompt))
		}
		core, _ := quiz.OutcomeTables(schema)
		n := outcomes(you, core)
		fmt.Printf("\nCore quiz: %d correct, %d incorrect, %d don't know, %d unanswered (chance: %.1f; paper mean: 8.5)\n",
			n[quiz.OutcomeCorrect], n[quiz.OutcomeIncorrect], n[quiz.OutcomeDontKnow], n[quiz.OutcomeUnanswered],
			quiz.CoreChance)
	}

	if section == "opt" || section == "all" {
		fmt.Println("\nOptimization quiz:")
		for _, q := range quiz.OptQuestions() {
			if q.IsTrueFalse() {
				askTF(q.ID, q.Prompt)
				continue
			}
			a := ask(q.Prompt, append(append([]string{}, q.Choices...), "d"))
			switch {
			case a == "d" || a == "dk":
				answer(q.ID, survey.AnswerDontKnow)
			case a != "":
				answer(q.ID, canonicalChoice(q.Choices, a))
			}
		}
		_, opt := quiz.OutcomeTables(schema)
		n := outcomes(you, opt)
		fmt.Printf("\nOptimization quiz: %d correct, %d incorrect, %d don't know, %d unanswered\n",
			n[quiz.OutcomeCorrect], n[quiz.OutcomeIncorrect], n[quiz.OutcomeDontKnow], n[quiz.OutcomeUnanswered])
	}

	fmt.Println("\nRun `fpquiz -answers` to see the answer key's explanations.")
}

// outcomes counts the one respondent's outcomes on the questions of
// tabs, indexed by quiz.PerQuestionOutcome.
func outcomes(you *colstore.Dataset, tabs []quiz.OutcomeTable) (n [4]int) {
	for i := range tabs {
		t := &tabs[i]
		if t.TF {
			n[t.ByCode[you.TF(t.Col, 0)]]++
		} else {
			n[t.Outcome(you.SingleCode(t.Col, 0))]++
		}
	}
	return n
}

// canonicalChoice returns the listed choice that typed matches without
// regard to case ("-o2" is "-O2"), or typed itself when none does.
func canonicalChoice(choices []string, typed string) string {
	for _, c := range choices {
		if strings.EqualFold(c, typed) {
			return c
		}
	}
	return typed
}
