package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpstudy/internal/benchcmp"
	"fpstudy/internal/runlog"
	"fpstudy/internal/telemetry"
)

// histLine renders one BENCH_history.jsonl entry of a given era.
// throughput goes to a single n=199/workers=1 run; cpus picks the
// host fingerprint (host variance shows up as a num_cpu change).
func histLine(ts string, throughput float64, cpus int, extras string) string {
	host := `{"goos":"linux","goarch":"amd64","num_cpu":` + itoa(cpus) + `,"gomaxprocs":` + itoa(cpus) + `,"go_version":"go1.24.0"}`
	run := `{"n":199,"workers":1,"best_seconds":0.02,"respondents_per_sec":` +
		ftoa(throughput) + `,"allocs_per_respondent":31.5,"gc_pause_total_ms":0,"gc_count":0}`
	return `{"timestamp":"` + ts + `","appended":"` + ts + `","seed":42,"host":` + host + `,"runs":[` + run + `]` + extras + `}`
}

func itoa(v int) string     { b, _ := json.Marshal(v); return string(b) }
func ftoa(v float64) string { b, _ := json.Marshal(v); return string(b) }
func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTrendMixedSchemaHistory is the tolerance contract: a trajectory
// spanning schema eras v3-v9 plus junk and a truncated final line
// renders a report (skip, never crash), and a collapsed run measured
// on a different host is flagged as drift with a host-variance note.
func TestTrendMixedSchemaHistory(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "BENCH_history.jsonl")
	content := histLine("2026-01-01T00:00:00Z", 10000, 8, "") + "\n" + // v3 era: runs only
		"\n" + // blank line
		histLine("2026-02-01T00:00:00Z", 10100, 8,
			`,"io":[{"n":199,"format":"binary","op":"encode","reps":3,"bytes":17000,"best_seconds":0.001,"mb_per_sec":16.2,"respondents_per_sec":199000}]`) + "\n" + // v5 era: +io
		"corrupt {{{ line\n" +
		histLine("2026-03-01T00:00:00Z", 9900, 8,
			`,"query":[{"n":199,"mode":"mem","name":"grouped_mean","workers":1,"reps":3,"selected":199,"best_seconds":0.0001,"respondents_per_sec":1990000}]`) + "\n" + // v7 era: +query
		histLine("2026-04-01T00:00:00Z", 5000, 1, "") + "\n" + // collapsed run on a 1-cpu host
		histLine("2026-05-01T00:00:00Z", 10050, 8, "") + "\n" +
		histLine("2026-05-15T00:00:00Z", 10020, 8,
			`,"distrib":[{"n":10000,"procs":4,"workers_per_proc":0,"reps":2,"best_seconds":0.08,"respondents_per_sec":125000}]`) + "\n" + // v9 era: +distrib (no longer written; ignored on read)
		`{"timestamp":"2026-06-01T` // truncated final line
	write(t, hist, content)

	out, err := trendReport(hist, filepath.Join(dir, "missing-ledger.jsonl"), benchcmp.DriftParams{})
	if err != nil {
		t.Fatalf("trendReport: %v", err)
	}
	for _, want := range []string{
		"6 entries (2 line(s) skipped)",
		"n=199/workers=1 respondents_per_sec",
		"likely host variance",
		"no ledger at",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}
	// The collapsed 5000 point is the only drift in the throughput
	// series; the 1% wiggles sit under the 10% floor.
	if !strings.Contains(out, "@ 2026-04-01T00:00:00Z: 5000") {
		t.Errorf("collapsed run not flagged as drift:\n%s", out)
	}
}

// TestTrendEmptyAndMissingFiles: empty files and absent files render
// inline notes, not errors.
func TestTrendEmptyAndMissingFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	write(t, empty, "")
	out, err := trendReport(empty, filepath.Join(dir, "nope.jsonl"), benchcmp.DriftParams{})
	if err != nil {
		t.Fatalf("trendReport on empty history: %v", err)
	}
	if !strings.Contains(out, "no parsable entries") || !strings.Contains(out, "no ledger at") {
		t.Errorf("empty/missing files not reported inline:\n%s", out)
	}
	out, err = trendReport("", "", benchcmp.DriftParams{})
	if err != nil || !strings.Contains(out, "no history at") {
		t.Errorf("blank paths: err=%v out=%q", err, out)
	}
}

// TestTrendLedger: the ledger section summarizes per-tool wall time,
// surfaces nonzero exits, and skips a truncated tail.
func TestTrendLedger(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "ledger.jsonl")
	for i, wall := range []float64{0.5, 0.52, 0.48} {
		rec := runlog.Record{Schema: runlog.Schema, Tool: "fpgen", Timestamp: "2026-07-0" + itoa(i+1) + "T00:00:00Z",
			Host: runlog.CurrentHost(), WallSeconds: wall}
		if err := runlog.Append(ledger, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := runlog.Append(ledger, runlog.Record{Schema: runlog.Schema, Tool: "fpbench",
		Timestamp: "2026-07-04T00:00:00Z", Host: runlog.CurrentHost(), WallSeconds: 2, ExitStatus: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ledger, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":1,"tool":"fpgen","wall`) // truncated tail
	f.Close()

	out, err := trendReport(filepath.Join(dir, "no-history.jsonl"), ledger, benchcmp.DriftParams{})
	if err != nil {
		t.Fatalf("trendReport: %v", err)
	}
	for _, want := range []string{
		"4 records (1 line(s) skipped)",
		"fpgen wall_seconds",
		"fpbench wall_seconds",
		"nonzero exit: fpbench @ 2026-07-04T00:00:00Z (status 1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger section missing %q:\n%s", want, out)
		}
	}
}

// TestDiffReportNamesSlowedStage: the CLI-level acceptance contract —
// a report pair with a 20% injected slowdown in one stage names that
// stage as the top contributor.
func TestDiffReportNamesSlowedStage(t *testing.T) {
	dir := t.TempDir()
	spans := func(grade float64) []telemetry.SpanSnapshot {
		return []telemetry.SpanSnapshot{{Name: "run", Seconds: 1.0 + grade, Children: []telemetry.SpanSnapshot{
			{Name: "generate", Seconds: 1.0},
			{Name: "grade", Seconds: grade},
		}}}
	}
	mk := func(name string, grade, wall float64) string {
		rep := benchcmp.Report{SchemaVersion: benchcmp.SchemaVersion, Tool: "fpbench",
			Runs: []benchcmp.Run{{N: 199, Workers: 1, BestSeconds: wall,
				RespondentsPerSec: 199 / wall, Spans: spans(grade)}}}
		data, err := json.Marshal(&rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		write(t, path, string(data))
		return path
	}
	oldPath := mk("old.json", 1.0, 2.0)
	newPath := mk("new.json", 1.2, 2.2)

	out, err := diffReport(oldPath, newPath)
	if err != nil {
		t.Fatalf("diffReport: %v", err)
	}
	if !strings.Contains(out, "top contributor: run/grade") {
		t.Errorf("diff did not name run/grade as top contributor:\n%s", out)
	}
	if !strings.Contains(out, "unstamped build") {
		t.Errorf("missing provenance header:\n%s", out)
	}
}
