package core

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
)

// TestQueryWorkCountersInPrometheusExposition wires the pipeline
// telemetry, runs one real query plus one whose filter selects
// nothing, and checks that query.rows_scanned / query.blocks_skipped
// land in the registry and render in the /metrics Prometheus text
// exposition under the fpstudy prefix.
func TestQueryWorkCountersInPrometheusExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)

	r := Study{Seed: 7, NMain: 300, NStudent: 20, Workers: 2}.Run()
	src := r.MainSource()
	s := r.Main.Cols.Schema
	area := s.MustColumnIndex(quiz.BGArea)
	val := []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}}

	if _, err := query.Run(src, query.Query{Values: val}, 2); err != nil {
		t.Fatalf("unfiltered query: %v", err)
	}
	res, err := query.Run(src, query.Query{
		Filter: []query.Predicate{query.I32Set{Col: area, Mask: 0}},
		Values: val,
	}, 2)
	if err != nil {
		t.Fatalf("all-false query: %v", err)
	}
	if res.TotalCount() != 0 || res.Sum[0][0] != 0 {
		t.Fatalf("skip path changed the result: %+v", res)
	}

	snap := reg.Snapshot()
	// Both queries scanned every row once: 2 passes over n=300.
	if got := snap.Counters[telemetry.MetricQueryRowsScanned]; got != 600 {
		t.Errorf("%s = %d, want 600", telemetry.MetricQueryRowsScanned, got)
	}
	// Only the all-false query's single block elided its aggregation.
	if got := snap.Counters[telemetry.MetricQueryBlocksSkipped]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricQueryBlocksSkipped, got)
	}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, "fpstudy", snap); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE fpstudy_query_rows_scanned counter\nfpstudy_query_rows_scanned 600\n",
		"# TYPE fpstudy_query_blocks_skipped counter\nfpstudy_query_blocks_skipped 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestProbeMetricNameSet pins the exact counter and latency names an
// instrumented n=2000 Study.Run with one grading analysis, an FPDS
// round trip and one query produce. Install registers one histogram
// per row of the stage table, so the latency names are the whole
// table. The run ledger's stage rows, /metrics, traces and the smoke
// scripts all key on these strings, so a rename or a dropped stage
// shows up here first.
func TestProbeMetricNameSet(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)

	r := Study{Seed: 42, NMain: 2000, NStudent: 52}.Run()
	r.ConfidenceReport()
	var buf bytes.Buffer
	if err := r.Main.Cols.EncodeBinary(&buf, colstore.IOOptions{
		BytesWritten: reg.Counter(telemetry.MetricIOBytesWritten)}); err != nil {
		t.Fatal(err)
	}
	d, err := colstore.DecodeBinary(quiz.Columns(), &buf, colstore.IOOptions{
		BytesRead: reg.Counter(telemetry.MetricIOBytesRead)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.Run(query.NewDatasetSource(d), query.Query{}, 0); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var got []string
	for name := range snap.Counters {
		got = append(got, "counter "+name)
	}
	for name := range snap.Gauges {
		got = append(got, "gauge "+name)
	}
	for name := range snap.Latencies {
		got = append(got, "latency "+name)
	}
	sort.Strings(got)
	want := []string{
		"counter io.bytes_read",
		"counter io.bytes_written",
		"counter parallel.busy_ns",
		"counter parallel.items",
		"counter pipeline.respondents",
		"counter pipeline.runs",
		"counter query.blocks_skipped",
		"counter query.rows_scanned",
		"latency latency.calibrate",
		"latency latency.calibrate-question",
		"latency latency.draw-profiles",
		"latency latency.fpds-decode-block",
		"latency latency.fpds-encode-block",
		"latency latency.generate",
		"latency latency.generate-main",
		"latency latency.generate-students",
		"latency latency.grade",
		"latency latency.grade-batch",
		"latency latency.load-data",
		"latency latency.load-studentdata",
		"latency latency.parallel-shard",
		"latency latency.parallel-wait",
		"latency latency.parallel-worker-busy",
		"latency latency.pool-task",
		"latency latency.query-block",
		"latency latency.report",
		"latency latency.sample-block",
		"latency latency.sample-responses",
		"latency latency.write",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("metric names:\n got %q\nwant %q", got, want)
	}
}
