package core

import (
	"path/filepath"
	"testing"

	"fpstudy/internal/runlog"
	"fpstudy/internal/telemetry"
)

// TestGoldenRunlogInvariance is the ledger half of the invariance
// contract: recording runs in the structured run ledger (telemetry
// stack installed, a runlog.Run open for the whole process, one
// Finish per leg) must not change a single output byte at any worker
// count. The ledger only snapshots counters and stage histograms that
// already exist — this test is the proof that bookkeeping never leaks back
// into the pipeline.
func TestGoldenRunlogInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	const n = 2000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1)

	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)

	for _, workers := range []int{1, 4, 16} {
		run := runlog.Start(ledger, "golden-test", []string{"-workers"}, reg)
		if run == nil {
			t.Fatal("runlog.Start returned nil for a non-empty path")
		}
		got := goldenSnapshot(t, n, workers)
		run.SetGolden("marker", "golden-invariance")
		run.Finish(0)
		if got.main != want.main {
			t.Errorf("workers=%d: run ledger changed the main dataset", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: run ledger changed the student dataset", workers)
		}
		for i := range got.figures {
			if got.figures[i] != want.figures[i] {
				t.Errorf("workers=%d: run ledger changed %s", workers, fingerprintLabel(i))
			}
		}
	}

	// Non-vacuousness: the ledger must hold one well-formed record per
	// leg, each carrying the telemetry it snapshotted.
	recs, skipped, err := runlog.Read(ledger)
	if err != nil {
		t.Fatalf("reading ledger back: %v", err)
	}
	if skipped != 0 || len(recs) != 3 {
		t.Fatalf("ledger holds %d records (%d skipped), want 3 (0 skipped)", len(recs), skipped)
	}
	for i, r := range recs {
		if r.Tool != "golden-test" || r.ExitStatus != 0 {
			t.Errorf("record %d: tool=%q exit=%d", i, r.Tool, r.ExitStatus)
		}
		if r.Counters[telemetry.MetricRespondents] == 0 {
			t.Errorf("record %d: no respondent counter snapshotted", i)
		}
		// The registry is shared, so record i has seen i+1 runs.
		if row := stageRow(r, "generate"); row.Count != int64(i+1) || row.Seconds <= 0 {
			t.Errorf("record %d: generate row %+v, want %d observations and positive seconds", i, row, i+1)
		}
		if r.Golden["marker"] != "golden-invariance" {
			t.Errorf("record %d: golden hash map = %v", i, r.Golden)
		}
		if r.WallSeconds <= 0 {
			t.Errorf("record %d: wall_seconds = %v", i, r.WallSeconds)
		}
	}
}

// stageRow returns the record's ledger row of the named stage (the
// zero row when the stage was not observed).
func stageRow(r runlog.Record, name string) runlog.StageLatency {
	for _, row := range r.Latency {
		if row.Stage == name {
			return row
		}
	}
	return runlog.StageLatency{}
}
