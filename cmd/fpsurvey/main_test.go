package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata/golden")

// TestMain lets a test run fpsurvey's main in a child process: the test
// binary re-executes itself with fpsurveyMainEnv set and the fpsurvey
// arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv(fpsurveyMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"fpsurvey"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const fpsurveyMainEnv = "FPSURVEY_TEST_RUN_MAIN"

// runFpsurvey copies the input file from testdata into a fresh
// directory, runs fpsurvey there with args followed by the file's base
// name, and returns the exit code, stdout, stderr and the directory.
func runFpsurvey(t *testing.T, input string, args ...string) (int, string, string, string) {
	t.Helper()
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", input))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, input), data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runFpsurveyIn(t, dir, append(args, input)...)
	return code, stdout, stderr, dir
}

// runFpsurveyIn runs fpsurvey in dir with args and returns the exit
// code, stdout and stderr.
func runFpsurveyIn(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), fpsurveyMainEnv+"=1", "FPSTUDY_RUNLOG=")
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
	t.Fatalf("running fpsurvey %v: %v", args, err)
	return 0, "", ""
}

// TestAnonymizeReplacesFile pins that -anonymize writes a new file and
// renames it over the input rather than rewriting the input in place:
// a hard link to the input still holds the original bytes, which an
// in-place truncation would have rewritten.
func TestAnonymizeReplacesFile(t *testing.T) {
	for _, input := range []string{"freetext.json", "cohort.fpds"} {
		dir := t.TempDir()
		orig, err := os.ReadFile(filepath.Join("testdata", input))
		if err != nil {
			t.Fatal(err)
		}
		path, link := filepath.Join(dir, input), filepath.Join(dir, "link")
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Link(path, link); err != nil {
			t.Skipf("no hard links here: %v", err)
		}
		if code, _, stderr := runFpsurveyIn(t, dir, "-anonymize", input); code != 0 {
			t.Fatalf("fpsurvey -anonymize %s: exit %d, stderr %q", input, code, stderr)
		}
		if got, err := os.ReadFile(link); err != nil || !bytes.Equal(got, orig) {
			t.Errorf("%s: the hard link no longer holds the original bytes (err %v)", input, err)
		}
		pi, err1 := os.Stat(path)
		li, err2 := os.Stat(link)
		if err1 != nil || err2 != nil || os.SameFile(pi, li) {
			t.Errorf("%s: the input is still the linked file (errs %v, %v)", input, err1, err2)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 2 {
			t.Errorf("%s: %d files left in the directory, want the input and the link", input, len(entries))
		}
	}
}

// withoutLoadLines drops the ingest summary lines, which carry a
// wall-clock time.
func withoutLoadLines(stderr string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(stderr, "\n") {
		if !strings.HasPrefix(line, "fpsurvey: loaded ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// goldenCases are fpsurvey runs over the committed inputs: a seeded
// 20-respondent cohort (fpgen -n 20 -seed 3) as row JSON and as an FPDS
// shard, a hand-written JSON with free-text and verbatim answers, one
// with an option no question offers, and one whose second respondent
// gives four options that are not offered (validation names the first
// in instrument order, bg.formal_training).
var goldenCases = []struct {
	name  string
	input string
	args  []string
}{
	{"validate-cohort-json", "cohort.json", []string{"-validate"}},
	{"validate-cohort-fpds", "cohort.fpds", []string{"-validate"}},
	{"validate-freetext", "freetext.json", []string{"-validate"}},
	{"validate-offlist", "offlist.json", []string{"-validate"}},
	{"validate-offlist-first", "offlist4.json", []string{"-validate"}},
	{"tally-truefalse-json", "cohort.json", []string{"-tally", "core.commutativity"}},
	{"tally-truefalse-fpds", "cohort.fpds", []string{"-tally", "core.commutativity"}},
	{"tally-likert-fpds", "cohort.fpds", []string{"-tally", "susp.invalid"}},
	{"tally-likert-freetext", "freetext.json", []string{"-tally", "susp.invalid"}},
	{"tally-single-fpds", "cohort.fpds", []string{"-tally", "bg.area"}},
	{"tally-single-freetext", "freetext.json", []string{"-tally", "bg.area"}},
	{"tally-multi-json", "cohort.json", []string{"-tally", "bg.fp_languages"}},
	{"tally-multi-freetext", "freetext.json", []string{"-tally", "bg.fp_languages"}},
	{"tally-unknown", "freetext.json", []string{"-tally", "bg.nope"}},
	{"csv-cohort-json", "cohort.json", []string{"-csv"}},
	{"csv-cohort-fpds", "cohort.fpds", []string{"-csv"}},
	{"csv-freetext", "freetext.json", []string{"-csv"}},
	{"anonymize-freetext", "freetext.json", []string{"-anonymize"}},
	{"anonymize-cohort-fpds", "cohort.fpds", []string{"-anonymize"}},
}

// TestGoldenOutputs pins the exit code, stdout and stderr (less the
// ingest summary) of every case, and for -anonymize the rewritten file.
func TestGoldenOutputs(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr, dir := runFpsurvey(t, c.input, c.args...)
			got := "exit " + strconv.Itoa(code) + "\n-- stdout --\n" + stdout +
				"-- stderr --\n" + withoutLoadLines(stderr)
			checkGolden(t, c.name+".txt", []byte(got))
			if c.args[0] == "-anonymize" {
				data, err := os.ReadFile(filepath.Join(dir, c.input))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, c.name+filepath.Ext(c.input), data)
			}
		})
	}
}
