// Command fpquiz administers the paper's floating point quiz at the
// terminal, grading answers with the softfloat oracle. It can also dump
// the full oracle-derived answer key with witnesses.
//
// Usage:
//
//	fpquiz              # take the quiz interactively
//	fpquiz -answers     # print every question with its derived answer
//	fpquiz -section core|opt|all
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

func main() {
	answers := flag.Bool("answers", false, "print the oracle-derived answer key and exit")
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
			res := q.Oracle()
			fmt.Printf("\n%2d. %s\n", i+1, q.Label)
			fmt.Printf("    %s\n", indent(q.Snippet, "    "))
			fmt.Printf("    Assertion: %s\n", q.Prompt)
			fmt.Printf("    Answer: %v\n", res.Holds)
			fmt.Printf("    Why: %s\n", res.Witness)
		}
	}
	if section == "opt" || section == "all" {
		fmt.Println("\nOptimization quiz answer key")
		fmt.Println(strings.Repeat("=", 72))
		for i, q := range quiz.OptQuestions() {
			res := q.Oracle()
			fmt.Printf("\n%2d. %s\n", i+1, q.Label)
			fmt.Printf("    %s\n", q.Prompt)
			if q.IsTrueFalse() {
				fmt.Printf("    Answer: %v\n", res.Holds)
			} else {
				fmt.Printf("    Answer: %s\n", q.CorrectChoice)
			}
			fmt.Printf("    Why: %s\n", res.Witness)
		}
	}
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}

func runInteractive(section string) {
	in := bufio.NewScanner(os.Stdin)
	resp := survey.Response{Token: "you", Answers: map[string]survey.Answer{}}

	ask := func(prompt string, options []string) string {
		fmt.Println()
		fmt.Println(prompt)
		fmt.Printf("[%s] > ", strings.Join(options, "/"))
		if !in.Scan() {
			return ""
		}
		return strings.ToLower(strings.TrimSpace(in.Text()))
	}

	if section == "core" || section == "all" {
		fmt.Println("Core quiz: for each code snippet, is the assertion true or false?")
		fmt.Println("(t = true, f = false, d = don't know, enter = skip)")
		for i, q := range quiz.CoreQuestions() {
			a := ask(fmt.Sprintf("%d/%d\n%s\n%s", i+1, 15, q.Snippet, q.Prompt),
				[]string{"t", "f", "d"})
			switch a {
			case "t", "true":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerTrue}
			case "f", "false":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerFalse}
			case "d", "dk":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
			}
		}
		t := quiz.ScoreCore(resp)
		fmt.Printf("\nCore quiz: %d correct, %d incorrect, %d don't know, %d unanswered (chance: %.1f; paper mean: 8.5)\n",
			t.Correct, t.Incorrect, t.DontKnow, t.Unanswered, quiz.CoreChance)
	}

	if section == "opt" || section == "all" {
		fmt.Println("\nOptimization quiz:")
		for _, q := range quiz.OptQuestions() {
			if q.IsTrueFalse() {
				a := ask(q.Prompt, []string{"t", "f", "d"})
				switch a {
				case "t", "true":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerTrue}
				case "f", "false":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerFalse}
				case "d", "dk":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
				}
				continue
			}
			a := ask(q.Prompt, append(append([]string{}, q.Choices...), "d"))
			if a == "d" || a == "dk" {
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
			} else if a != "" {
				resp.Answers[q.ID] = survey.Answer{Choice: a}
			}
		}
		t := quiz.ScoreOpt(resp)
		fmt.Printf("\nOptimization quiz: %d correct, %d incorrect, %d don't know, %d unanswered\n",
			t.Correct, t.Incorrect, t.DontKnow, t.Unanswered)
	}

	fmt.Println("\nRun `fpquiz -answers` to see the oracle's explanations.")
}
