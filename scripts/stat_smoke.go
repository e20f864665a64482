//go:build ignore

// Perf-records smoke test: drives the run ledger and fpstat end to end
// with real binaries:
//
//  1. fpgen and fpreport append well-formed run-ledger records via
//     -runlog, and fpgen's record carries the sha256 of the dataset it
//     wrote as its "dataset_sha256" golden hash;
//  2. `fpstat trend` renders over that ledger after a truncated final
//     line is appended, and surfaces the record of a run that exited
//     nonzero;
//  3. `fpstat diff` judges inline perfbench result fixtures against
//     BENCHMARK.json: exit 0 on two identical outputs, exit 1 naming
//     wall_s on a copy whose wall_s rose 30%, exit 2 on a malformed
//     line.
//
// Run via `make stat-smoke` (or `go run scripts/stat_smoke.go` from
// the repo root). Exits 0 and prints PASS on success.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stat-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// run executes a built binary, returning combined output and exit
// status; any status other than wantStatus fails the smoke.
func run(wantStatus int, bin string, args ...string) string {
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	status := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			fail("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
		}
		status = ee.ExitCode()
	}
	if status != wantStatus {
		fail("%s %s: exit %d, want %d\n%s", filepath.Base(bin), strings.Join(args, " "), status, wantStatus, out)
	}
	return string(out)
}

func writeFile(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fail("%v", err)
	}
}

// perfbenchOut is a perfbench standard output: the info line, then the
// result line with every end-to-end metric of BENCHMARK.json.
func perfbenchOut(wallS float64) string {
	return `{"run":{"workload":"analyses","seed":1,"n":50000,"workers":2,"host":{"nproc":2,"gomaxprocs":2,"cpu_model":"Xeon","go_version":"go1.24.0"},"passes":12}}` + "\n" +
		fmt.Sprintf(`{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":2.1,"unit":"s"},"wall_s":{"value":%g,"unit":"s"},"peak_heap_mb":{"value":310,"unit":"MB"},"query_p50_ms":{"value":950,"unit":"ms"},"query_p99_ms":{"value":950,"unit":"ms"}}}`, wallS) + "\n"
}

func main() {
	tmp, err := os.MkdirTemp("", "fpstudy-stat-smoke-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	bins := map[string]string{}
	for _, tool := range []string{"fpgen", "fpreport", "fpstat"} {
		bin := filepath.Join(tmp, tool)
		build := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fail("building %s: %v", tool, err)
		}
		bins[tool] = bin
	}

	// 1. Real invocations append ledger records, one of them failing.
	ledger := filepath.Join(tmp, "ledger.jsonl")
	cohort := filepath.Join(tmp, "cohort.fpds")
	run(0, bins["fpgen"], "-n", "500", "-o", cohort, "-runlog", ledger)
	run(0, bins["fpreport"], "-data", cohort, "-fig", "12", "-runlog", ledger)
	run(2, bins["fpreport"], "-fig", "99", "-runlog", ledger)

	data, err := os.ReadFile(cohort)
	if err != nil {
		fail("%v", err)
	}
	sum := sha256.Sum256(data)
	wantGolden := hex.EncodeToString(sum[:])
	ldata, err := os.ReadFile(ledger)
	if err != nil {
		fail("ledger never written: %v", err)
	}
	var tools []string
	sc := bufio.NewScanner(bytes.NewReader(ldata))
	for sc.Scan() {
		var rec struct {
			Schema      int               `json:"schema"`
			Tool        string            `json:"tool"`
			Timestamp   string            `json:"timestamp"`
			Host        map[string]any    `json:"host"`
			WallSeconds float64           `json:"wall_seconds"`
			ExitStatus  int               `json:"exit_status"`
			Golden      map[string]string `json:"golden"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			fail("malformed ledger line %q: %v", sc.Text(), err)
		}
		if rec.Schema < 1 || rec.Timestamp == "" || len(rec.Host) == 0 || rec.WallSeconds <= 0 {
			fail("incomplete ledger record %s", sc.Text())
		}
		if rec.Tool == "fpgen" && rec.Golden["dataset_sha256"] != wantGolden {
			fail("fpgen golden dataset_sha256 = %q, want %s (sha256 of %s)",
				rec.Golden["dataset_sha256"], wantGolden, cohort)
		}
		tools = append(tools, fmt.Sprintf("%s:%d", rec.Tool, rec.ExitStatus))
	}
	if got := strings.Join(tools, " "); got != "fpgen:0 fpreport:0 fpreport:2" {
		fail("ledger records = %q, want fpgen:0 fpreport:0 fpreport:2", got)
	}

	// 2. A crashed writer's truncated line must not take trend down.
	f, err := os.OpenFile(ledger, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fail("%v", err)
	}
	f.WriteString(`{"schema":1,"tool":"fpgen","wall`)
	f.Close()
	trend := run(0, bins["fpstat"], "trend", "-ledger", ledger)
	for _, want := range []string{
		"3 records (1 line(s) skipped)",
		"fpgen -n 500 -o " + cohort,
		"nonzero exit: fpreport",
	} {
		if !strings.Contains(trend, want) {
			fail("fpstat trend output missing %q:\n%s", want, trend)
		}
	}

	// 3. fpstat diff gates perfbench outputs on BENCHMARK.json's bounds.
	oldOut, newOut, slowOut, badOut := filepath.Join(tmp, "old.out"), filepath.Join(tmp, "new.out"),
		filepath.Join(tmp, "slow.out"), filepath.Join(tmp, "bad.out")
	writeFile(oldOut, perfbenchOut(1.5))
	writeFile(newOut, perfbenchOut(1.5))
	writeFile(slowOut, perfbenchOut(1.5*1.3))
	writeFile(badOut, strings.Replace(perfbenchOut(1.5), `"correct":true`, `"correct":tru`, 1))
	run(0, bins["fpstat"], "diff", oldOut, newOut)
	if out := run(1, bins["fpstat"], "diff", oldOut, slowOut); !strings.Contains(out, "WORSE: wall_s") {
		fail("fpstat diff did not name wall_s for a 30%% regression:\n%s", out)
	}
	if out := run(2, bins["fpstat"], "diff", oldOut, badOut); !strings.Contains(out, badOut+":2:") {
		fail("fpstat diff did not locate the malformed line at %s:2:\n%s", badOut, out)
	}

	fmt.Println("stat-smoke: PASS: fpgen and fpreport appended well-formed ledger records " +
		"(fpgen's golden hash matches its dataset); fpstat trend rendered over a truncated ledger " +
		"and surfaced the nonzero exit; fpstat diff passed identical perfbench outputs, " +
		"failed a 30% wall_s rise and rejected a malformed line")
}
