//go:build ignore

// I/O smoke test: the end-to-end contract of the dataset file formats.
// Generates an n=10000 cohort with fpgen in both serializations (FPDS
// binary via .fpds auto-detection, row JSON via -format), then runs
// `fpreport -data <file> -all` off each file and requires the full
// report — every figure plus the headline claims — to match an
// in-process `fpreport -all` regeneration at the same seed and size,
// byte for byte. Exercises the whole path a dataset consumer depends
// on: columnar generation, parallel binary encode, format sniffing,
// streaming decode, grading off loaded columns, reporting. It also
// checks that bad flag values are rejected before any work: an unknown
// fpgen -format leaves an existing -o file byte-identical,
// `fpreport -fig 23` exits 2, and a negative cohort size (`fpgen -n`,
// `fpreport -n`, `fpreport -nstudents`) exits 2 naming the flag,
// without a panic, with its run-ledger record appended. Finally, the
// pinned million-respondent cohort, `fpgen -n 1000000 -seed 1` written
// as FPDS, must hash to millionDigest: every change to generation lands
// against that digest.
//
// Run via `make io-smoke` (or `go run scripts/io_smoke.go` from the
// repo root). Exits 0 and prints PASS on success.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// millionDigest is the sha256 of `fpgen -n 1000000 -seed 1 -o x.fpds`.
const millionDigest = "c1743811ed8d34fc44141db0426bd3aca87608fa4b0e3e96066a2862d53855a8"

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "io-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// run executes the binary, captures stdout, and returns it with the
// exit code. Claims legitimately FAIL at non-paper cohort sizes
// (fpreport exits 1 then); the smoke test asserts the loaded-data and
// regenerated runs agree, including on that verdict.
func run(bin string, args ...string) ([]byte, int) {
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			fail("running %s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return out.Bytes(), code
}

func main() {
	tmp, err := os.MkdirTemp("", "fpstudy-io-smoke-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	fpgen := filepath.Join(tmp, "fpgen")
	fpreport := filepath.Join(tmp, "fpreport")
	for _, b := range []struct{ bin, pkg string }{{fpgen, "./cmd/fpgen"}, {fpreport, "./cmd/fpreport"}} {
		build := exec.Command("go", "build", "-o", b.bin, b.pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fail("building %s: %v", b.pkg, err)
		}
	}

	const n = "10000"
	binPath := filepath.Join(tmp, "cohort.fpds")
	jsonPath := filepath.Join(tmp, "cohort.json")
	if _, code := run(fpgen, "-n", n, "-seed", "42", "-o", binPath); code != 0 {
		fail("fpgen binary write exited %d", code)
	}
	if _, code := run(fpgen, "-n", n, "-seed", "42", "-format", "json", "-o", jsonPath); code != 0 {
		fail("fpgen json write exited %d", code)
	}
	head := make([]byte, 4)
	f, err := os.Open(binPath)
	if err != nil {
		fail("%v", err)
	}
	if _, err := f.Read(head); err != nil || string(head) != "FPDS" {
		fail("%s does not start with the FPDS magic (got %q)", binPath, head)
	}
	f.Close()

	want, wantCode := run(fpreport, "-all", "-n", n, "-seed", "42")
	if len(want) == 0 {
		fail("in-process fpreport produced no output")
	}
	for _, data := range []string{binPath, jsonPath} {
		got, code := run(fpreport, "-data", data, "-all", "-seed", "42")
		if code != wantCode {
			fail("fpreport -data %s exited %d, in-process run exited %d", data, code, wantCode)
		}
		if !bytes.Equal(got, want) {
			fail("fpreport -data %s output differs from the in-process run (%d vs %d bytes)",
				data, len(got), len(want))
		}
	}

	// Flag validation happens before generation and before -o is
	// opened (the cohort size would make late validation take seconds).
	before, err := os.ReadFile(binPath)
	if err != nil {
		fail("%v", err)
	}
	if _, code := run(fpgen, "-n", "1000000", "-format", "bogus", "-o", binPath); code == 0 {
		fail("fpgen -format bogus exited 0")
	}
	if after, err := os.ReadFile(binPath); err != nil || !bytes.Equal(after, before) {
		fail("fpgen -format bogus modified the existing -o file (%d -> %d bytes, err %v)", len(before), len(after), err)
	}
	if _, code := run(fpreport, "-fig", "23", "-n", "1000000"); code != 2 {
		fail("fpreport -fig 23 exited %d, want 2", code)
	}
	ledgerPath := filepath.Join(tmp, "ledger.jsonl")
	for i, c := range []struct{ bin, flag string }{{fpgen, "-n"}, {fpreport, "-n"}, {fpreport, "-nstudents"}} {
		args := []string{c.flag, "-1", "-runlog", ledgerPath}
		if c.bin == fpgen {
			args = append(args, "-o", binPath)
		}
		cmd := exec.Command(c.bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			fail("%s %s -1: got %v, want exit status 2", filepath.Base(c.bin), c.flag, err)
		}
		if msg := stderr.String(); strings.Contains(msg, "panic:") || !strings.Contains(msg, c.flag+" ") {
			fail("%s %s -1: stderr %q should name the flag and not panic", filepath.Base(c.bin), c.flag, msg)
		}
		if ledger, err := os.ReadFile(ledgerPath); err != nil || bytes.Count(ledger, []byte("\n")) != i+1 {
			fail("%s %s -1: run ledger should hold %d records (err %v)", filepath.Base(c.bin), c.flag, i+1, err)
		}
	}
	if after, err := os.ReadFile(binPath); err != nil || !bytes.Equal(after, before) {
		fail("fpgen -n -1 modified the existing -o file (%d -> %d bytes, err %v)", len(before), len(after), err)
	}

	millionPath := filepath.Join(tmp, "million.fpds")
	if _, code := run(fpgen, "-n", "1000000", "-seed", "1", "-o", millionPath); code != 0 {
		fail("fpgen -n 1000000 -seed 1 exited %d", code)
	}
	if got := sha256File(millionPath); got != millionDigest {
		fail("fpgen -n 1000000 -seed 1 wrote sha256 %s, want %s", got, millionDigest)
	}

	st, _ := os.Stat(binPath)
	jst, _ := os.Stat(jsonPath)
	fmt.Printf("io-smoke: PASS: n=%s reports identical from .fpds (%.1f MB) and .json (%.1f MB) to the in-process run (%d bytes of report); n=1000000 seed 1 at sha256 %.8s\n",
		n, float64(st.Size())/(1<<20), float64(jst.Size())/(1<<20), len(want), millionDigest)
}

// sha256File returns the hex sha256 of the file at path.
func sha256File(path string) string {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fail("hashing %s: %v", path, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
