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
		Stages:   []Stage{{Name: "generate", Seconds: 1.2, SelfSeconds: 1.2, Items: 199}},
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
		got.Counters["pipeline.respondents"] != 398 || got.Golden["dataset"] != "deadbeef" {
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

func TestFlattenSpansSelfTime(t *testing.T) {
	spans := []telemetry.SpanSnapshot{{
		Name: "run", Seconds: 10,
		Children: []telemetry.SpanSnapshot{
			{Name: "generate", Seconds: 6, Items: 100,
				Children: []telemetry.SpanSnapshot{{Name: "calibrate", Seconds: 2}}},
			{Name: "grade", Seconds: 3},
		},
	}}
	got := FlattenSpans(spans)
	want := []Stage{
		{Name: "run", Seconds: 10, SelfSeconds: 1},
		{Name: "run/generate", Seconds: 6, SelfSeconds: 4, Items: 100},
		{Name: "run/generate/calibrate", Seconds: 2, SelfSeconds: 2},
		{Name: "run/grade", Seconds: 3, SelfSeconds: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("flattened %d stages, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Children longer than the parent (clock skew) clamp self to zero.
	skew := FlattenSpans([]telemetry.SpanSnapshot{{
		Name: "p", Seconds: 1,
		Children: []telemetry.SpanSnapshot{{Name: "c", Seconds: 2}},
	}})
	if skew[0].SelfSeconds != 0 {
		t.Errorf("skewed parent self = %v, want 0", skew[0].SelfSeconds)
	}
}

// TestRunLifecycle drives the Start/SetGolden/Finish path a CLI uses
// and checks the appended record carries the telemetry state.
func TestRunLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	reg := telemetry.NewRegistry()
	trec := telemetry.NewRecorder(reg)
	reg.Counter("io.bytes_written").Add(42)
	reg.Counter("zero.counter") // stays 0: must be elided
	reg.Latency("latency.sample_block").Observe(3 * time.Millisecond)
	sp := trec.StartSpan("generate")
	sp.AddItems(7)
	sp.End()

	r := Start(path, "fpgen", []string{"-n", "7"}, reg, trec)
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
	if len(rec.Stages) != 1 || rec.Stages[0].Name != "generate" || rec.Stages[0].Items != 7 {
		t.Errorf("stages: %+v", rec.Stages)
	}
	if len(rec.Latency) != 1 || rec.Latency[0].Stage != "sample_block" || rec.Latency[0].Count != 1 {
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
	r := Start("", "fpgen", nil, nil, nil)
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
