package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fpstudy/internal/runlog"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ledgerLine renders one fpgen ledger record measured on a host with
// the given CPU count (host variance shows up as a num_cpu change).
func ledgerLine(t *testing.T, ts string, wall float64, cpus int, args ...string) string {
	t.Helper()
	line, err := json.Marshal(runlog.Record{Schema: runlog.Schema, Tool: "fpgen", Args: args, Timestamp: ts,
		Host:        runlog.Host{GOOS: "linux", GOARCH: "amd64", NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.24.0"},
		WallSeconds: wall})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// TestTrendLedgerHostVariance is the tolerance contract: a ledger with
// blank and junk lines and a truncated final line renders a report
// (skip, never crash), and a collapsed run measured on a different
// host is flagged as drift with a host-variance note.
func TestTrendLedgerHostVariance(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	content := ledgerLine(t, "2026-01-01T00:00:00Z", 1.00, 8) + "\n" +
		"\n" + // blank line
		ledgerLine(t, "2026-02-01T00:00:00Z", 1.01, 8) + "\n" +
		"corrupt {{{ line\n" +
		ledgerLine(t, "2026-03-01T00:00:00Z", 0.99, 8) + "\n" +
		ledgerLine(t, "2026-04-01T00:00:00Z", 2.00, 1) + "\n" + // collapsed run on a 1-cpu host
		ledgerLine(t, "2026-05-01T00:00:00Z", 1.005, 8) + "\n" +
		`{"schema":1,"tool":"fpgen","wall` // truncated final line
	write(t, ledger, content)

	out, err := trendReport(ledger, DriftParams{})
	if err != nil {
		t.Fatalf("trendReport: %v", err)
	}
	for _, want := range []string{
		"5 records (2 line(s) skipped)",
		"fpgen wall_seconds",
		"likely host variance",
		"@ 2026-04-01T00:00:00Z: 2 ", // the collapsed run is the only drift
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "likely host variance") != 1 {
		t.Errorf("want exactly one drifted point:\n%s", out)
	}
}

// TestTrendSeriesKeyedByArgs: runs of one tool at different sizes are
// different series. Two stable series, fpgen -n 199 and fpgen -n
// 1000000, interleaved in one ledger, flag no drift.
func TestTrendSeriesKeyedByArgs(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	var b strings.Builder
	for i, run := range []struct {
		n    string
		wall float64
	}{{"199", 0.010}, {"199", 0.011}, {"1000000", 1.00}, {"199", 0.010},
		{"199", 0.0105}, {"1000000", 1.02}, {"199", 0.0102}, {"1000000", 0.98}} {
		b.WriteString(ledgerLine(t, "2026-07-01T00:00:0"+strconv.Itoa(i)+"Z", run.wall, 8, "-n", run.n) + "\n")
	}
	write(t, ledger, b.String())

	out, err := trendReport(ledger, DriftParams{})
	if err != nil {
		t.Fatalf("trendReport: %v", err)
	}
	for _, want := range []string{"fpgen -n 199 wall_seconds", "fpgen -n 1000000 wall_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing series %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "drifted points:") {
		t.Errorf("stable series at different -n flagged as drift:\n%s", out)
	}
}

// TestTrendEmptyAndMissingFiles: an empty ledger and an absent one
// render inline notes, not errors.
func TestTrendEmptyAndMissingFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	write(t, empty, "")
	out, err := trendReport(empty, DriftParams{})
	if err != nil || !strings.Contains(out, "no parsable records") {
		t.Errorf("empty ledger: err=%v out=%q", err, out)
	}
	out, err = trendReport(filepath.Join(dir, "nope.jsonl"), DriftParams{})
	if err != nil || !strings.Contains(out, "no ledger at") {
		t.Errorf("missing ledger: err=%v out=%q", err, out)
	}
	out, err = trendReport("", DriftParams{})
	if err != nil || !strings.Contains(out, "no ledger at") {
		t.Errorf("blank path: err=%v out=%q", err, out)
	}
}

// TestTrendLedger: the report summarizes wall time per invocation,
// surfaces nonzero exits, and skips a truncated tail.
func TestTrendLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	for i, wall := range []float64{0.5, 0.52, 0.48} {
		rec := runlog.Record{Schema: runlog.Schema, Tool: "fpgen", Timestamp: "2026-07-0" + strconv.Itoa(i+1) + "T00:00:00Z",
			Host: runlog.CurrentHost(), WallSeconds: wall}
		if err := runlog.Append(ledger, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := runlog.Append(ledger, runlog.Record{Schema: runlog.Schema, Tool: "fpreport", Args: []string{"-claims"},
		Timestamp: "2026-07-04T00:00:00Z", Host: runlog.CurrentHost(), WallSeconds: 2, ExitStatus: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(ledger, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":1,"tool":"fpgen","wall`) // truncated tail
	f.Close()

	out, err := trendReport(ledger, DriftParams{})
	if err != nil {
		t.Fatalf("trendReport: %v", err)
	}
	for _, want := range []string{
		"4 records (1 line(s) skipped)",
		"fpgen wall_seconds",
		"fpreport -claims wall_seconds",
		"nonzero exit: fpreport @ 2026-07-04T00:00:00Z (status 1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ledger report missing %q:\n%s", want, out)
		}
	}
}
