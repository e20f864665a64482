package runlog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpstudy/internal/telemetry"
)

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	want := Record{
		Schema: Schema, Tool: "fpgen", Args: []string{"-n", "199"},
		Timestamp: "2026-08-08T00:00:00Z", Host: CurrentHost(),
		WallSeconds: 1.5, ExitStatus: 0,
		Latency:  []StageLatency{{Stage: "generate", Count: 1, Seconds: 1.2, P50NS: 1.2e9}},
		Counters: map[string]int64{"pipeline.respondents": 398},
		Golden:   map[string]string{"dataset": "deadbeef"},
	}
	for i := 0; i < 3; i++ {
		if err := Append(path, want); err != nil {
			t.Fatal(err)
		}
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	got := recs[1]
	if got.Tool != want.Tool || got.WallSeconds != want.WallSeconds ||
		got.Counters["pipeline.respondents"] != 398 || got.Golden["dataset"] != "deadbeef" ||
		len(got.Latency) != 1 || got.Latency[0] != want.Latency[0] {
		t.Errorf("round trip mismatch: got %+v", got)
	}
	if got.Host != want.Host {
		t.Errorf("host mismatch: got %+v want %+v", got.Host, want.Host)
	}
}

// TestReadTolerance is the crashed-writer contract: blank lines,
// malformed lines, and a truncated final line are skipped and counted,
// never fatal. A record carrying a key this version no longer writes
// (the retired multi-process "topology" object) still reads.
func TestReadTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	good := `{"schema":1,"tool":"fpgen","timestamp":"2026-08-08T00:00:00Z","host":{"goos":"linux","goarch":"amd64","num_cpu":8,"gomaxprocs":8,"go_version":"go1.24.0"},"wall_seconds":1,"exit_status":0}`
	retired := `{"schema":1,"tool":"fpreport","timestamp":"2026-08-09T00:00:00Z","host":{"goos":"linux","goarch":"amd64","num_cpu":8,"gomaxprocs":8,"go_version":"go1.24.0"},"wall_seconds":3,"exit_status":0,"topology":{"procs":3,"workers_per_proc":2,"worker_wall_seconds":[1,1,1]}}`
	content := good + "\n" +
		"\n" + // blank
		"not json at all\n" +
		good + "\n" +
		retired + "\n" +
		`{"schema":1,"tool":"fpreport","timestamp":"2026-0` // truncated mid-record, no newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if r := recs[2]; r.Tool != "fpreport" || r.WallSeconds != 3 {
		t.Errorf("record with a retired topology key read as %+v", r)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (malformed + truncated)", skipped)
	}
}

// TestReadSkipsOverlongLine: a line longer than the 16 MiB cap is one
// skipped line, not the end of the ledger — the records around it
// still read.
func TestReadSkipsOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	good := `{"schema":1,"tool":"fpgen","timestamp":"2026-08-08T00:00:00Z","wall_seconds":1,"exit_status":0}`
	content := good + "\n" + strings.Repeat("x", 17<<20) + "\n" + good + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Errorf("recs=%d skipped=%d, want 2/1", len(recs), skipped)
	}
}

func TestReadEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 0 {
		t.Errorf("empty file: recs=%d skipped=%d, want 0/0", len(recs), skipped)
	}
}

// TestLatencyRowsSeconds pins the ledger's stage rows: one row per
// observed histogram, named without the "latency." prefix, sorted by
// stage, carrying the count, the summed duration in seconds and the
// quantiles; a registered but unobserved stage has no row.
func TestLatencyRowsSeconds(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.Install(reg) // registers every stage, report among them
	defer telemetry.Install(nil)
	telemetry.Record(telemetry.StageWrite, 0, time.Time{}, 2*time.Second, 0, 0)
	for _, d := range []time.Duration{time.Second, 3 * time.Second} {
		telemetry.Record(telemetry.StageGenerate, 0, time.Time{}, d, 0, 0)
	}
	rows := latencyRows(reg.Snapshot().Latencies)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want generate and write", rows)
	}
	if g := rows[0]; g.Stage != "generate" || g.Count != 2 || g.Seconds != 4 || g.P50NS <= 0 || g.P50NS > g.P999NS {
		t.Errorf("generate row = %+v, want count 2, 4 seconds, ordered quantiles", g)
	}
	if w := rows[1]; w.Stage != "write" || w.Count != 1 || w.Seconds != 2 {
		t.Errorf("write row = %+v, want count 1, 2 seconds", w)
	}
}

// TestReadSchema1Ledger: a schema-1 record, as fpgen wrote it before
// the span tree's "stages" rows were retired, still reads beside a
// current record, with its wall time intact. fpstat trend reads only
// wall_seconds, so mixed-schema ledgers keep their history.
func TestReadSchema1Ledger(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "schema1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"schema":1,`)) || !bytes.Contains(old, []byte(`"stages":[{`)) {
		t.Fatalf("testdata/schema1.jsonl is not a schema-1 record with stages: %s", old)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, Record{Schema: Schema, Tool: "fpgen", WallSeconds: 2.5}); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 2 {
		t.Fatalf("recs=%d skipped=%d, want 2/0", len(recs), skipped)
	}
	if r := recs[0]; r.Schema != 1 || r.Tool != "fpgen" || r.WallSeconds != 0.059493582 || len(r.Latency) == 0 {
		t.Errorf("schema-1 record read as %+v", r)
	}
	if r := recs[1]; r.Schema != Schema || r.WallSeconds != 2.5 {
		t.Errorf("current record read as %+v", r)
	}
}

// TestRunLifecycle drives the Start/SetGolden/Finish path a CLI uses
// and checks the appended record carries the telemetry state.
func TestRunLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	reg := telemetry.NewRegistry()
	reg.Counter("io.bytes_written").Add(42)
	reg.Counter("zero.counter") // stays 0: must be elided
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	telemetry.Record(telemetry.StageSampleBlock, 0, time.Time{}, 3*time.Millisecond, 0, 0)

	r := Start(path, "fpgen", []string{"-n", "7"}, reg)
	r.SetGolden("dataset", "abc123")
	r.Finish(0)

	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != 1 {
		t.Fatalf("recs=%d skipped=%d, want 1/0", len(recs), skipped)
	}
	rec := recs[0]
	if rec.Schema != Schema || rec.Tool != "fpgen" {
		t.Errorf("header: %+v", rec)
	}
	if rec.ExitStatus != 0 || rec.WallSeconds <= 0 {
		t.Errorf("wall/exit: %+v", rec)
	}
	if len(rec.Latency) != 1 || rec.Latency[0].Stage != "sample-block" || rec.Latency[0].Count != 1 ||
		rec.Latency[0].Seconds != 0.003 {
		t.Errorf("latency: %+v", rec.Latency)
	}
	if rec.Counters["io.bytes_written"] != 42 {
		t.Errorf("counters: %+v", rec.Counters)
	}
	if _, ok := rec.Counters["zero.counter"]; ok {
		t.Errorf("zero counter not elided: %+v", rec.Counters)
	}
	if rec.Golden["dataset"] != "abc123" {
		t.Errorf("golden: %+v", rec.Golden)
	}
	if _, err := time.Parse(time.RFC3339, rec.Timestamp); err != nil {
		t.Errorf("timestamp %q: %v", rec.Timestamp, err)
	}
}

// TestNilRunNoOps pins the disabled-ledger contract: a "" path yields
// a nil Run whose whole method set is safe.
func TestNilRunNoOps(t *testing.T) {
	r := Start("", "fpgen", nil, nil)
	if r != nil {
		t.Fatalf("Start with empty path = %v, want nil", r)
	}
	r.SetGolden("x", "y") // must not panic
	r.Finish(1)           // must not panic
}

func TestHostKey(t *testing.T) {
	h := Host{GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0"}
	if got := h.Key(); got != "linux/amd64 cpu=4 procs=4 go1.24.0" {
		t.Errorf("Key() = %q", got)
	}
	h.SerialHost = true
	if got := h.Key(); got != "linux/amd64 cpu=4 procs=4 go1.24.0 serial" {
		t.Errorf("serial Key() = %q", got)
	}
}

// FuzzRead feeds arbitrary ledger bytes to Read, optionally after one
// line over maxLine (built here, so the corpus stays small). Read must
// not panic or hang, must not fail on a readable file, and must account
// for at most one record or skip per line.
func FuzzRead(f *testing.F) {
	good := `{"schema":1,"tool":"fpgen","timestamp":"2026-08-08T00:00:00Z","wall_seconds":1,"exit_status":0}`
	f.Add([]byte(good+"\n"), false)
	f.Add([]byte(good+"\n\n"+good), false)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, overlong bool) {
		if overlong {
			data = append([]byte(strings.Repeat("x", maxLine+1)+"\n"), data...)
		}
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, skipped, err := Read(path)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		lines := bytes.Count(data, []byte("\n"))
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++ // the truncated final line
		}
		if len(recs)+skipped > lines {
			t.Fatalf("%d records + %d skipped from %d lines", len(recs), skipped, lines)
		}
	})
}
