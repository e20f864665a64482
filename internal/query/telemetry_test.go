package query_test

import (
	"math/rand"
	"testing"

	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
)

// TestWorkHookCounters pins the query work counters the telemetry
// probe keeps: query.rows_scanned advances by each loaded block's row
// count, and query.blocks_skipped advances exactly when an aggregation
// pass of Run is elided for an empty-selection block.
func TestWorkHookCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomCohort(t, rng, 700)
	s := d.Schema
	src := query.NewDatasetSource(d)
	val := []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}}
	none := []query.Predicate{query.I32Set{Col: s.MustColumnIndex(quiz.BGArea), Mask: 0}}

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	rows := reg.Counter(telemetry.MetricQueryRowsScanned)
	skipped := reg.Counter(telemetry.MetricQueryBlocksSkipped)

	if _, err := query.Run(src, query.Query{Values: val}, 4); err != nil {
		t.Fatal(err)
	}
	if rows.Value() != 700 || skipped.Value() != 0 {
		t.Fatalf("unfiltered: rows=%d skipped=%d, want 700/0", rows.Value(), skipped.Value())
	}

	if _, err := query.Run(src, query.Query{Filter: none, Values: val}, 4); err != nil {
		t.Fatal(err)
	}
	if rows.Value() != 1400 || skipped.Value() != 1 {
		t.Fatalf("all-false Run: rows=%d skipped=%d, want 1400/1", rows.Value(), skipped.Value())
	}

	// A count-only query has no aggregation pass to skip.
	if _, err := query.Run(src, query.Query{Filter: none}, 4); err != nil {
		t.Fatal(err)
	}
	if skipped.Value() != 1 {
		t.Fatalf("count-only query skipped %d blocks, want still 1", skipped.Value())
	}
}
