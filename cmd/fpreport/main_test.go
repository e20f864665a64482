package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run fpreport's main in a child process: the
// test binary re-executes itself with fpreportMainEnv set and the
// fpreport arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv(fpreportMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"fpreport"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const fpreportMainEnv = "FPREPORT_TEST_RUN_MAIN"

// runFpreport runs fpreport with args and returns its exit code,
// stdout and stderr.
func runFpreport(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), fpreportMainEnv+"=1", "FPSTUDY_RUNLOG=")
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
	t.Fatalf("running fpreport %v: %v", args, err)
	return 0, "", ""
}

// TestReportFlagsExclusive: two report flags are a usage error that
// names both, before any report is printed, instead of one silently
// winning.
func TestReportFlagsExclusive(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-all", "-calibration", "-items"}, []string{"-all", "-calibration", "-items"}},
		{[]string{"-query", "/bg.formal_training/count", "-fig", "3"}, []string{"-fig", "-query"}},
		{[]string{"-claims", "-confidence"}, []string{"-claims", "-confidence"}},
		{[]string{"-fig", "12", "-csv", "-markdown"}, []string{"-csv", "-markdown"}},
	} {
		code, stdout, stderr := runFpreport(t, append([]string{"-n", "20"}, tc.args...)...)
		if code != 2 || stdout != "" {
			t.Errorf("fpreport %v: exit %d, stdout %q; want exit 2 and no report", tc.args, code, stdout)
		}
		for _, flag := range tc.want {
			if !strings.Contains(stderr, flag) {
				t.Errorf("fpreport %v: message %q does not name %s", tc.args, stderr, flag)
			}
		}
	}
	// One report flag, or -fig 0 beside another, is not a conflict.
	for _, args := range [][]string{{"-fig", "3"}, {"-fig", "0", "-items"}} {
		if code, stdout, stderr := runFpreport(t, append([]string{"-n", "20"}, args...)...); code != 0 || stdout == "" {
			t.Errorf("fpreport %v: exit %d, stderr %q; want a report", args, code, stderr)
		}
	}
	// A format flag applies to an analysis report as to a figure.
	code, stdout, stderr := runFpreport(t, "-n", "20", "-calibration", "-csv")
	if want := "Question,chi2,df,crit(5%),fit\n"; code != 0 || !strings.HasPrefix(stdout, want) {
		t.Errorf("fpreport -calibration -csv: exit %d, stderr %q, stdout %q; want CSV starting %q", code, stderr, stdout, want)
	}
}
