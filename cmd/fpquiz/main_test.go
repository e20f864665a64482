package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"fpstudy/internal/quiz"
)

// TestMain lets a test run fpquiz's main in a child process: the test
// binary re-executes itself with fpquizMainEnv set and the fpquiz
// arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv(fpquizMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"fpquiz"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const fpquizMainEnv = "FPQUIZ_TEST_RUN_MAIN"

// runFpquiz runs fpquiz with args and empty stdin, and returns its exit
// code, stdout and stderr.
func runFpquiz(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), fpquizMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("running fpquiz %v: %v", args, err)
	return 0, "", ""
}

// TestSectionMustBeKnown: a -section other than core, opt or all is a
// usage error, with or without -answers, instead of a run that prints
// or asks nothing.
func TestSectionMustBeKnown(t *testing.T) {
	for _, args := range [][]string{
		{"-answers", "-section", "bogus"},
		{"-section", "bogus"},
		{"-answers", "-section", ""},
	} {
		code, stdout, stderr := runFpquiz(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("fpquiz %q: exit %d, stdout %q; want exit 2 and nothing printed", args, code, stdout)
		}
		if !strings.Contains(stderr, "usage: fpquiz") {
			t.Errorf("fpquiz %q: stderr %q has no usage line", args, stderr)
		}
	}
}

// TestAnswerKeyCore: -answers -section core prints the 15 core answers,
// in question order, as the grader's answer key has them.
func TestAnswerKeyCore(t *testing.T) {
	code, stdout, stderr := runFpquiz(t, "-answers", "-section", "core")
	if code != 0 {
		t.Fatalf("fpquiz -answers -section core: exit %d, stderr %q", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(stdout, "\n") {
		if a, ok := strings.CutPrefix(strings.TrimSpace(line), "Answer: "); ok {
			got = append(got, a)
		}
	}
	qs := quiz.CoreQuestions()
	if len(got) != len(qs) || len(qs) != 15 {
		t.Fatalf("printed %d answers for %d core questions, want 15:\n%s", len(got), len(qs), stdout)
	}
	for i, q := range qs {
		if want := quiz.CoreAnswer(q.ID); got[i] != want {
			t.Errorf("answer %d (%s) = %q, want %q", i+1, q.ID, got[i], want)
		}
	}
}
