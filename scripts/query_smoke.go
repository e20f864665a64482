//go:build ignore

// Query smoke test: the end-to-end contract of the ad-hoc query
// surface through the real binaries. Generates an n=10000 cohort with
// fpgen in both serializations, then runs the same expressions through
// `fpreport -query` (regenerated in-process, loaded row JSON, and
// streamed .fpds) and `fpsurvey slice` (both file formats), requiring
// every pair of runs to print byte-identical tables — the streaming
// out-of-core path, the in-memory path, and both front-ends must
// agree exactly. Then, for a single-choice question with no free text,
// it requires the per-label counts of `fpsurvey slice '/<q>/count'` to
// equal those of `fpsurvey -tally <q>` on both files, tying the engine's
// group-by to the column scan behind -tally.
//
// Run via `make query-smoke` (or `go run scripts/query_smoke.go` from
// the repo root). Exits 0 and prints PASS on success.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "query-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func run(bin string, args ...string) []byte {
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fail("running %s %v: %v", filepath.Base(bin), args, err)
	}
	return out.Bytes()
}

func main() {
	tmp, err := os.MkdirTemp("", "fpstudy-query-smoke-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	fpgen := filepath.Join(tmp, "fpgen")
	fpreport := filepath.Join(tmp, "fpreport")
	fpsurvey := filepath.Join(tmp, "fpsurvey")
	for _, b := range []struct{ bin, pkg string }{
		{fpgen, "./cmd/fpgen"}, {fpreport, "./cmd/fpreport"}, {fpsurvey, "./cmd/fpsurvey"},
	} {
		build := exec.Command("go", "build", "-o", b.bin, b.pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fail("building %s: %v", b.pkg, err)
		}
	}

	const n = "10000"
	binPath := filepath.Join(tmp, "cohort.fpds")
	jsonPath := filepath.Join(tmp, "cohort.json")
	run(fpgen, "-n", n, "-seed", "42", "-o", binPath)
	run(fpgen, "-n", n, "-seed", "42", "-format", "json", "-o", jsonPath)

	exprs := []string{
		"//count",
		"susp.invalid>=4/bg.contrib_size/count",
		"/bg.formal_training/mean:core.score",
		"/bg.contrib_size/mean:opt.score",
		"bg.formal_training!=None/bg.area/sum:optall.dontknow",
		"//mean:core.unanswered",
		"bg.formal_training!=None/bg.contrib_size/mean:susp.invalid",
	}
	for _, expr := range exprs {
		// Every route to the same answer: regenerated in-process,
		// streamed off the shard, loaded from row JSON, and through both
		// front-ends.
		want := run(fpreport, "-n", n, "-seed", "42", "-query", expr)
		if len(want) == 0 {
			fail("in-process fpreport -query %q produced no output", expr)
		}
		routes := [][]string{
			{fpreport, "-data", binPath, "-query", expr},
			{fpreport, "-data", jsonPath, "-query", expr},
			{fpsurvey, "slice", expr, binPath},
			{fpsurvey, "slice", expr, jsonPath},
		}
		for _, r := range routes {
			if got := run(r[0], r[1:]...); !bytes.Equal(got, want) {
				fail("%s %v output differs from the in-process run for %q:\n got: %s\nwant: %s",
					filepath.Base(r[0]), r[1:], expr, got, want)
			}
		}
	}

	// Cross-check the engine's group-by against fpsurvey -tally, which
	// walks the column itself, on a single-choice question the
	// generator answers only with listed options.
	const q = "bg.formal_training"
	for _, path := range []string{binPath, jsonPath} {
		slice := sliceCounts(run(fpsurvey, "slice", "/"+q+"/count", path))
		tally := tallyCounts(run(fpsurvey, "-tally", q, path))
		if len(slice) == 0 || fmt.Sprint(slice) != fmt.Sprint(tally) {
			fail("%s: slice /%s/count counts %v, -tally counts %v", filepath.Base(path), q, slice, tally)
		}
	}

	fmt.Printf("query-smoke: PASS: %d expressions identical across in-process, streamed .fpds, loaded .json, fpreport -query, and fpsurvey slice at n=%s; slice and -tally agree on %s\n",
		len(exprs), n, q)
}

// labelCount splits a table line into its label and the integer in its
// last-but-one field (count, then percentage); ok is false for lines
// that do not end that way.
func labelCount(line string) (label string, count string, ok bool) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return "", "", false
	}
	count = f[len(f)-2]
	if strings.Trim(count, "0123456789") != "" {
		return "", "", false
	}
	return strings.Join(f[:len(f)-2], " "), count, true
}

// sliceCounts reads a "/<q>/count" slice table: one count per group,
// with the engine's "(unanswered)" group under -tally's "unanswered".
// A free-text "(other)" group fails the check, since -tally counts
// free text under its own text.
func sliceCounts(out []byte) map[string]string {
	counts := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		label, count, ok := labelCount(line)
		if !ok {
			continue
		}
		switch label {
		case "(other)":
			fail("slice table has a free-text group:\n%s", out)
		case "(unanswered)":
			label = "unanswered"
		}
		counts[label] = count
	}
	return counts
}

// tallyCounts reads fpsurvey -tally output: one count per label.
func tallyCounts(out []byte) map[string]string {
	counts := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if label, count, ok := labelCount(line); ok {
			counts[label] = count
		}
	}
	return counts
}
