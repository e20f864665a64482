// Package benchcmp is the perf-regression observatory over fpbench
// reports: it parses BENCH_pipeline.json documents (any schema up to
// the current SchemaVersion), diffs
// two of them metric-by-metric against configurable noise bands, and
// maintains the append-only BENCH_history.jsonl trajectory. fpbench's
// compare mode and the make bench-gate CI hook are thin wrappers over
// this package, so the regression logic itself is unit-testable.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"fpstudy/internal/runlog"
	"fpstudy/internal/telemetry"
)

// SchemaVersion is the BENCH_pipeline.json document version this
// package reads and writes.
//
// History:
//
//	1 (implicit, field absent) — tool/timestamp/seed/host/runs with
//	  per-run best_seconds, respondents_per_sec, speedup_vs_serial.
//	2 — adds "schema_version" itself and per-run "spans": the stage
//	  span breakdown (generate-main / generate-students / calibrate /
//	  grade, with per-stage seconds, items, items/sec) of the best rep.
//	3 — "speedup_vs_serial" is omitted (instead of a meaningless 0)
//	  when no workers=1 baseline was timed for the same n; adds per-run
//	  memory statistics from runtime.ReadMemStats deltas over the best
//	  rep: "allocs_per_respondent", "total_alloc_mb" (MiB),
//	  "gc_pause_total_ms", "gc_count". The pipeline is timed
//	  columnar (columnar generation + grading, no row-view
//	  materialization) — the configuration large cohorts run.
//	4 — adds the top-level "io" array: dataset serialization
//	  benchmarks, one entry per (n, format, op) with best_seconds, the
//	  on-disk byte size, mb_per_sec and respondents_per_sec. Formats
//	  are "binary" (the FPDS shard codec), "json" (columnar
//	  WriteJSON / streaming DecodeJSON), and "json-rows" (the legacy
//	  whole-document survey.DecodeDataset row decoder — the baseline
//	  the binary decoder is measured against; decode only). io
//	  throughput is gated by Compare under the throughput band.
//	5 — adds "host.serial_host": true when the report was measured
//	  with GOMAXPROCS=1, where every -workers value degenerates to a
//	  serial run and scaling numbers say nothing about the code.
//	  Compare additionally gates scaling within the NEW report: at
//	  every n with both a workers=1 and a workers=0 run, the all-cores
//	  run must not be slower than serial beyond the throughput band
//	  (metric "scaling_all_vs_serial"). The default -workers sweep
//	  grew from {1, 0} to {1, 2, 4, 0} so the full curve is recorded.
//	6 — adds the "latency" array to pipeline runs and io entries:
//	  per-stage latency quantiles (p50/p90/p99/p999 in ns, with
//	  observation counts) from the telemetry.LatencyHist observatory,
//	  accumulated over all reps of the configuration (pipeline runs
//	  carry the block-level pipeline stages; binary io entries carry
//	  the FPDS per-block codec stages). Compare gates each stage's p99
//	  under the latency band, skipping stages whose p99 sits below the
//	  absolute floor in both reports (timer noise, mirroring the v5 io
//	  floor) or whose observation count is below the minimum in either
//	  (quantiles of a handful of samples are not stable).
//	7 — adds the top-level "query" array: vectorized query-engine
//	  benchmarks, one entry per (n, mode, name, workers) where mode is
//	  "mem" (in-memory DatasetSource) or "stream" (out-of-core
//	  ShardSource over an .fpds file) and name identifies the canned
//	  expression (scan_mean_score, filtered_count, grouped_mean).
//	  Entries carry best_seconds, respondents_per_sec, and the
//	  query_block stage latency quantiles. Compare gates query
//	  throughput under the throughput band (with the io timing floor)
//	  and query stage p99 under the latency band. Reports without the
//	  section (v6 and older) compare cleanly — the query legs simply
//	  contribute no deltas.
//	8 — adds the top-level "vcs" object (full commit hash, commit
//	  time, dirty-tree flag, from the toolchain's build-info stamp via
//	  runtime/debug.ReadBuildInfo) and carries it into every
//	  BENCH_history.jsonl line, so a trajectory entry names the exact
//	  code it measured — "host variance" claims become checkable
//	  against the revision and host fingerprint instead of asserted.
//	  Absent from go-run/unstamped builds and from all older entries;
//	  readers tolerate the omission (nil).
//	9 — added a top-level "distrib" array timing a multi-process
//	  pipeline that has since been removed. The array is no longer
//	  written, and readers ignore it in older reports and history
//	  lines (encoding/json drops unknown keys), so v9 files need no
//	  migration.
const SchemaVersion = 9

// Host identifies the benchmarking machine.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// SerialHost tags reports measured with GOMAXPROCS=1: parallel.Workers
	// clamps every worker count to GOMAXPROCS, so all "parallel" legs of
	// such a report are really serial runs and its scaling curve is a
	// property of the host, not the code. fpbench sets it and prints a
	// loud warning; readers of the trajectory should skip scaling
	// conclusions from tagged entries.
	SerialHost bool `json:"serial_host,omitempty"`
}

// Run is one timed pipeline execution configuration.
type Run struct {
	N                 int     `json:"n"`
	Workers           int     `json:"workers"`
	Reps              int     `json:"reps"`
	BestSeconds       float64 `json:"best_seconds"`
	RespondentsPerSec float64 `json:"respondents_per_sec"`
	// SpeedupVsSerial compares against the workers=1 run of the same n
	// (1.0 when this is that run). It is omitted entirely when no
	// workers=1 baseline was timed for this n — a missing baseline is
	// not a measurement of 0.
	SpeedupVsSerial *float64 `json:"speedup_vs_serial,omitempty"`
	// Memory statistics: runtime.ReadMemStats deltas over the best rep.
	AllocsPerRespondent float64 `json:"allocs_per_respondent"`
	TotalAllocMB        float64 `json:"total_alloc_mb"`
	GCPauseTotalMS      float64 `json:"gc_pause_total_ms"`
	GCCount             uint32  `json:"gc_count"`
	// Spans is the stage breakdown of the best (fastest) rep, so slow
	// stages can be attributed without rerunning under a profiler.
	Spans []telemetry.SpanSnapshot `json:"spans"`
	// Latency holds per-stage latency quantiles accumulated over every
	// rep of this configuration (more reps mean more observations, so
	// the tails are pooled rather than taken from the best rep alone).
	Latency []StageLatency `json:"latency,omitempty"`
}

// StageLatency is the quantile summary of one instrumented stage for
// one run configuration: the stage name is the latency metric name
// without its "latency." prefix (e.g. "sample_block",
// "fpds_decode_block"). Quantiles are estimated from the log-linear
// bucket geometry (≤ ~3.1% relative error; see telemetry.LatencyHist).
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	P50NS  float64 `json:"p50_ns"`
	P90NS  float64 `json:"p90_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`
}

// IORun is one timed dataset-serialization configuration: encoding or
// decoding one cohort in one format. Throughput is reported both as
// raw bandwidth (MB/s over the serialized size) and as domain
// throughput (respondents/sec), because format changes move the two
// in different directions — a denser format can lose MB/s while
// gaining respondents/sec.
type IORun struct {
	N      int    `json:"n"`
	Format string `json:"format"` // "binary", "json", or "json-rows"
	Op     string `json:"op"`     // "encode" or "decode"
	Reps   int    `json:"reps"`
	// Bytes is the serialized dataset size (identical across reps — the
	// codecs are deterministic).
	Bytes             int64   `json:"bytes"`
	BestSeconds       float64 `json:"best_seconds"`
	MBPerSec          float64 `json:"mb_per_sec"`
	RespondentsPerSec float64 `json:"respondents_per_sec"`
	// Latency holds the per-block codec stage quantiles accumulated
	// over every rep of this operation (binary entries observe the FPDS
	// encode/decode block histograms; json entries have none).
	Latency []StageLatency `json:"latency,omitempty"`
}

// QueryRun is one timed query-engine configuration: a canned
// expression executed over one cohort size in one mode. "mem" runs
// scan the in-memory columns zero-copy; "stream" runs scan an .fpds
// shard block-at-a-time off disk (the out-of-core path, whose heap is
// bounded by block size x workers). Workers follows the pipeline
// convention: 0 means GOMAXPROCS.
type QueryRun struct {
	N       int    `json:"n"`
	Mode    string `json:"mode"` // "mem" or "stream"
	Name    string `json:"name"` // canned expression id
	Workers int    `json:"workers"`
	Reps    int    `json:"reps"`
	// Selected is the number of respondents the filter passed (identical
	// across reps and modes — the engine is deterministic).
	Selected          int64   `json:"selected"`
	BestSeconds       float64 `json:"best_seconds"`
	RespondentsPerSec float64 `json:"respondents_per_sec"`
	// Latency carries the query_block stage quantiles accumulated over
	// every rep of this configuration.
	Latency []StageLatency `json:"latency,omitempty"`
}

// StageLatencyFromSnapshot converts a telemetry latency snapshot
// (typically the Sub of two registry snapshots bracketing a
// configuration's reps) into the report form.
func StageLatencyFromSnapshot(stage string, s telemetry.LatencySnapshot) StageLatency {
	return StageLatency{
		Stage: stage, Count: s.Count,
		P50NS: s.P50NS, P90NS: s.P90NS, P99NS: s.P99NS, P999NS: s.P999NS,
	}
}

// Report is the BENCH_pipeline.json document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	Timestamp     string `json:"timestamp"`
	Seed          int64  `json:"seed"`
	Host          Host   `json:"host"`
	// VCS is the source revision the measuring binary was built from
	// (schema v8+; nil for older reports and unstamped builds).
	VCS  *runlog.VCS `json:"vcs,omitempty"`
	Runs []Run       `json:"runs"`
	// IO holds the dataset serialization benchmarks (schema v4+; absent
	// from older reports and from runs invoked with -io=false).
	IO []IORun `json:"io,omitempty"`
	// Query holds the query-engine benchmarks (schema v7+; absent from
	// older reports and from runs invoked with -query=false).
	Query []QueryRun `json:"query,omitempty"`
}

// Parse decodes a BENCH_pipeline.json document.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchcmp: parse report: %w", err)
	}
	if r.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("benchcmp: report schema v%d is newer than supported v%d", r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Load reads and decodes a BENCH_pipeline.json file.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// NSizes returns the distinct cohort sizes the report timed, ascending.
func (r *Report) NSizes() []int {
	seen := map[int]bool{}
	var out []int
	for _, run := range r.Runs {
		if !seen[run.N] {
			seen[run.N] = true
			out = append(out, run.N)
		}
	}
	sort.Ints(out)
	return out
}

// MissingNSizes returns the cohort sizes present in old but absent
// from new, ascending — the sizes an overwrite would silently drop
// from the benchmark trajectory. Empty when new covers old.
func MissingNSizes(old, new *Report) []int {
	have := map[int]bool{}
	for _, run := range new.Runs {
		have[run.N] = true
	}
	var missing []int
	for _, n := range old.NSizes() {
		if !have[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

// Bands are the relative noise tolerances of a comparison: a metric
// must move beyond its band (and beyond its absolute floor, where one
// exists) in the bad direction to count as a regression. Zero values
// mean "use the default for this band".
type Bands struct {
	// Throughput is the tolerated relative drop in respondents_per_sec
	// (0.05 = 5%).
	Throughput float64
	// Allocs is the tolerated relative growth in allocs_per_respondent.
	Allocs float64
	// AllocsFloor is the minimum absolute growth (allocations per
	// respondent) that can count as a regression — relative bands alone
	// would flag 0.05 → 0.12 allocs/respondent, which is noise.
	AllocsFloor float64
	// GCPause is the tolerated relative growth in gc_pause_total_ms.
	GCPause float64
	// GCPauseFloorMS is the minimum absolute pause growth (ms) that can
	// count as a regression.
	GCPauseFloorMS float64
	// IOFloorSeconds is the minimum best_seconds an io run must reach
	// (in either report) for its throughput to gate: sub-millisecond
	// serializations of tiny cohorts sit below the timer noise floor,
	// where a ±10% "change" is jitter, not a measurement. Such deltas
	// are still reported, never regressions.
	IOFloorSeconds float64
	// LatencyP99 is the tolerated relative growth in a stage's p99
	// latency (0.25 = 25%). Tail quantiles are inherently noisier than
	// best-of-reps throughput, so the default band is wider.
	LatencyP99 float64
	// LatencyFloorNS is the minimum p99 (ns) a stage must reach in at
	// least one report for it to gate: below it, a p99 "regression" is
	// timer resolution and scheduler jitter, not code. Mirrors
	// IOFloorSeconds. Sub-floor deltas are reported, never regressions.
	LatencyFloorNS float64
	// LatencyMinCount is the minimum observation count a stage needs in
	// BOTH reports for its p99 to gate — the p99 of a handful of
	// samples is an order statistic of noise. Stages below it are
	// reported, never regressions.
	LatencyMinCount int64
}

// DefaultBands are the bands the bench-gate runs with: 5% throughput,
// 10% allocations (floor: one allocation per respondent), 50% GC pause
// (floor: 5ms) — GC pause totals are by far the noisiest of the three —
// a 1ms io timing floor, and a 25% p99 latency band gated only on
// stages with p99 ≥ 100µs and ≥ 32 observations on both sides.
func DefaultBands() Bands {
	return Bands{
		Throughput:      0.05,
		Allocs:          0.10,
		AllocsFloor:     1.0,
		GCPause:         0.50,
		GCPauseFloorMS:  5.0,
		IOFloorSeconds:  0.001,
		LatencyP99:      0.25,
		LatencyFloorNS:  100_000,
		LatencyMinCount: 32,
	}
}

// withDefaults fills zero fields from DefaultBands.
func (b Bands) withDefaults() Bands {
	d := DefaultBands()
	if b.Throughput == 0 {
		b.Throughput = d.Throughput
	}
	if b.Allocs == 0 {
		b.Allocs = d.Allocs
	}
	if b.AllocsFloor == 0 {
		b.AllocsFloor = d.AllocsFloor
	}
	if b.GCPause == 0 {
		b.GCPause = d.GCPause
	}
	if b.GCPauseFloorMS == 0 {
		b.GCPauseFloorMS = d.GCPauseFloorMS
	}
	if b.IOFloorSeconds == 0 {
		b.IOFloorSeconds = d.IOFloorSeconds
	}
	if b.LatencyP99 == 0 {
		b.LatencyP99 = d.LatencyP99
	}
	if b.LatencyFloorNS == 0 {
		b.LatencyFloorNS = d.LatencyFloorNS
	}
	if b.LatencyMinCount == 0 {
		b.LatencyMinCount = d.LatencyMinCount
	}
	return b
}

// Delta is one metric of one configuration, compared across two
// reports. Pipeline deltas identify their configuration by (N,
// Workers); io deltas by (N, Format, Op), with Workers zero and
// Format/Op set; query deltas by (N, Mode, Name, Workers); latency
// deltas additionally carry Stage. Change is the relative movement
// ((new-old)/old), signed so that positive is "more of the metric"
// regardless of direction-of-goodness.
type Delta struct {
	N          int     `json:"n"`
	Workers    int     `json:"workers"`
	Format     string  `json:"format,omitempty"`
	Op         string  `json:"op,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	Name       string  `json:"name,omitempty"`
	Stage      string  `json:"stage,omitempty"`
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	Change     float64 `json:"change"`
	Regression bool    `json:"regression"`
}

// IsIO reports whether the delta came from the io section.
func (d Delta) IsIO() bool { return d.Format != "" }

// IsQuery reports whether the delta came from the query section.
func (d Delta) IsQuery() bool { return d.Name != "" }

// IsLatency reports whether the delta came from the latency section.
func (d Delta) IsLatency() bool { return d.Stage != "" }

// Config renders the delta's configuration for display:
// "n=199/workers=1" for pipeline deltas, "n=199/io/binary/decode" for
// io deltas, "n=199/query/stream/grouped_mean/workers=0" for query
// deltas, with "/latency/<stage>" appended for latency deltas of any
// section.
func (d Delta) Config() string {
	var cfg string
	switch {
	case d.IsIO():
		cfg = fmt.Sprintf("n=%d/io/%s/%s", d.N, d.Format, d.Op)
	case d.IsQuery():
		cfg = fmt.Sprintf("n=%d/query/%s/%s/workers=%d", d.N, d.Mode, d.Name, d.Workers)
	default:
		cfg = fmt.Sprintf("n=%d/workers=%d", d.N, d.Workers)
	}
	if d.IsLatency() {
		cfg += "/latency/" + d.Stage
	}
	return cfg
}

// Result is the outcome of comparing two reports.
type Result struct {
	// Deltas holds one entry per (configuration, metric) present in
	// both reports, in old-report run order.
	Deltas []Delta
	// OnlyOld / OnlyNew list configurations ("n=199/workers=1") present
	// in exactly one report; they are reported but never gate.
	OnlyOld []string
	OnlyNew []string
}

// Regressions returns the deltas that exceeded their band.
func (r *Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// configKey identifies one timed pipeline configuration.
type configKey struct{ n, workers int }

// ioKey identifies one timed serialization configuration.
type ioKey struct {
	n          int
	format, op string
}

// queryKey identifies one timed query-engine configuration.
type queryKey struct {
	n          int
	mode, name string
	workers    int
}

// relChange returns (new-old)/old, and 0 when old is 0 (a metric
// appearing from nothing has no meaningful relative change; the
// absolute floors handle that case).
func relChange(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// Compare diffs two reports metric-by-metric. For every (n, workers)
// configuration present in both, it emits deltas for throughput
// (respondents_per_sec, regression = drop beyond the band),
// allocations per respondent and GC pause total (regression = growth
// beyond both the relative band and the absolute floor). Matching is
// by configuration, not position, so reordered or partially
// overlapping reports compare correctly.
func Compare(old, new *Report, bands Bands) *Result {
	bands = bands.withDefaults()
	newRuns := map[configKey]Run{}
	for _, run := range new.Runs {
		newRuns[configKey{run.N, run.Workers}] = run
	}
	oldSeen := map[configKey]bool{}

	res := &Result{}
	for _, o := range old.Runs {
		key := configKey{o.N, o.Workers}
		oldSeen[key] = true
		n, ok := newRuns[key]
		if !ok {
			res.OnlyOld = append(res.OnlyOld, fmt.Sprintf("n=%d/workers=%d", o.N, o.Workers))
			continue
		}

		thr := relChange(o.RespondentsPerSec, n.RespondentsPerSec)
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Workers: o.Workers, Metric: "respondents_per_sec",
			Old: o.RespondentsPerSec, New: n.RespondentsPerSec, Change: thr,
			Regression: thr < -bands.Throughput,
		})

		alloc := relChange(o.AllocsPerRespondent, n.AllocsPerRespondent)
		allocGrowth := n.AllocsPerRespondent - o.AllocsPerRespondent
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Workers: o.Workers, Metric: "allocs_per_respondent",
			Old: o.AllocsPerRespondent, New: n.AllocsPerRespondent, Change: alloc,
			Regression: allocGrowth > bands.AllocsFloor &&
				(alloc > bands.Allocs || o.AllocsPerRespondent == 0),
		})

		gc := relChange(o.GCPauseTotalMS, n.GCPauseTotalMS)
		gcGrowth := n.GCPauseTotalMS - o.GCPauseTotalMS
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Workers: o.Workers, Metric: "gc_pause_total_ms",
			Old: o.GCPauseTotalMS, New: n.GCPauseTotalMS, Change: gc,
			Regression: gcGrowth > bands.GCPauseFloorMS &&
				(gc > bands.GCPause || o.GCPauseTotalMS == 0),
		})

		res.Deltas = append(res.Deltas, latencyDeltas(o, n, bands)...)
	}
	for _, n := range new.Runs {
		if !oldSeen[configKey{n.N, n.Workers}] {
			res.OnlyNew = append(res.OnlyNew, fmt.Sprintf("n=%d/workers=%d", n.N, n.Workers))
		}
	}

	// io section: both throughput views gate under the throughput band —
	// mb_per_sec is the bandwidth the walkthroughs quote, and
	// respondents_per_sec is what survives a format change that moves
	// the byte size. Byte size itself is reported via the deltas but
	// never gates (a format revision legitimately changes it).
	newIO := map[ioKey]IORun{}
	for _, run := range new.IO {
		newIO[ioKey{run.N, run.Format, run.Op}] = run
	}
	ioSeen := map[ioKey]bool{}
	for _, o := range old.IO {
		key := ioKey{o.N, o.Format, o.Op}
		ioSeen[key] = true
		n, ok := newIO[key]
		if !ok {
			res.OnlyOld = append(res.OnlyOld, Delta{N: o.N, Format: o.Format, Op: o.Op}.Config())
			continue
		}
		// Below the timing floor in both reports, throughput "changes"
		// are clock jitter — report them, never gate on them.
		measurable := o.BestSeconds >= bands.IOFloorSeconds ||
			n.BestSeconds >= bands.IOFloorSeconds
		mb := relChange(o.MBPerSec, n.MBPerSec)
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Format: o.Format, Op: o.Op, Metric: "mb_per_sec",
			Old: o.MBPerSec, New: n.MBPerSec, Change: mb,
			Regression: measurable && mb < -bands.Throughput,
		})
		rps := relChange(o.RespondentsPerSec, n.RespondentsPerSec)
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Format: o.Format, Op: o.Op, Metric: "respondents_per_sec",
			Old: o.RespondentsPerSec, New: n.RespondentsPerSec, Change: rps,
			Regression: measurable && rps < -bands.Throughput,
		})
		res.Deltas = append(res.Deltas, diffStageLatency(o.Latency, n.Latency, bands,
			Delta{N: o.N, Format: o.Format, Op: o.Op})...)
	}
	for _, n := range new.IO {
		if !ioSeen[ioKey{n.N, n.Format, n.Op}] {
			res.OnlyNew = append(res.OnlyNew, Delta{N: n.N, Format: n.Format, Op: n.Op}.Config())
		}
	}

	// query section: engine throughput gates under the throughput band
	// with the io timing floor (sub-millisecond scans of tiny cohorts
	// are clock jitter); the query_block stage p99 gates under the
	// latency band. Reports without the section contribute nothing.
	newQuery := map[queryKey]QueryRun{}
	for _, run := range new.Query {
		newQuery[queryKey{run.N, run.Mode, run.Name, run.Workers}] = run
	}
	querySeen := map[queryKey]bool{}
	for _, o := range old.Query {
		key := queryKey{o.N, o.Mode, o.Name, o.Workers}
		querySeen[key] = true
		n, ok := newQuery[key]
		if !ok {
			res.OnlyOld = append(res.OnlyOld,
				Delta{N: o.N, Mode: o.Mode, Name: o.Name, Workers: o.Workers}.Config())
			continue
		}
		measurable := o.BestSeconds >= bands.IOFloorSeconds ||
			n.BestSeconds >= bands.IOFloorSeconds
		rps := relChange(o.RespondentsPerSec, n.RespondentsPerSec)
		res.Deltas = append(res.Deltas, Delta{
			N: o.N, Mode: o.Mode, Name: o.Name, Workers: o.Workers,
			Metric: "respondents_per_sec",
			Old:    o.RespondentsPerSec, New: n.RespondentsPerSec, Change: rps,
			Regression: measurable && rps < -bands.Throughput,
		})
		res.Deltas = append(res.Deltas, diffStageLatency(o.Latency, n.Latency, bands,
			Delta{N: o.N, Mode: o.Mode, Name: o.Name, Workers: o.Workers})...)
	}
	for _, n := range new.Query {
		if !querySeen[queryKey{n.N, n.Mode, n.Name, n.Workers}] {
			res.OnlyNew = append(res.OnlyNew,
				Delta{N: n.N, Mode: n.Mode, Name: n.Name, Workers: n.Workers}.Config())
		}
	}

	// Scaling gate: a property of the new report alone — parallel must
	// never lose to serial. The old report only establishes history; the
	// claim "workers=all >= workers=1" has to hold on every fresh run.
	res.Deltas = append(res.Deltas, ScalingDeltas(new, bands)...)
	return res
}

// latencyDeltas diffs the per-stage p99 quantiles of one matched
// pipeline configuration.
func latencyDeltas(o, n Run, bands Bands) []Delta {
	return diffStageLatency(o.Latency, n.Latency, bands,
		Delta{N: o.N, Workers: o.Workers})
}

// diffStageLatency diffs two per-stage quantile lists under the
// latency bands; base carries the configuration identity (N/Workers or
// N/Format/Op) every emitted delta inherits. A stage gates only when
// it is measurable: its p99 reaches the absolute floor in at least one
// report (below that, "growth" is timer resolution) and its
// observation count reaches the minimum in both (the p99 of a few
// samples is an order statistic of scheduler noise, mirroring the v5
// io floor). Stages present in only one report are skipped silently —
// instrumentation coverage changes across schema versions, and
// OnlyOld/OnlyNew would drown in stage names.
func diffStageLatency(oldL, newL []StageLatency, bands Bands, base Delta) []Delta {
	newStages := map[string]StageLatency{}
	for _, s := range newL {
		newStages[s.Stage] = s
	}
	var out []Delta
	for _, os := range oldL {
		ns, ok := newStages[os.Stage]
		if !ok {
			continue
		}
		measurable := (os.P99NS >= bands.LatencyFloorNS || ns.P99NS >= bands.LatencyFloorNS) &&
			os.Count >= bands.LatencyMinCount && ns.Count >= bands.LatencyMinCount
		change := relChange(os.P99NS, ns.P99NS)
		d := base
		d.Stage = os.Stage
		d.Metric = "p99_ns"
		d.Old = os.P99NS
		d.New = ns.P99NS
		d.Change = change
		d.Regression = measurable && change > bands.LatencyP99
		out = append(out, d)
	}
	return out
}

// ScalingDeltas checks the parallel-scaling invariant of one report:
// at every cohort size with both a serial (workers=1) and an all-cores
// (workers=0) run, the all-cores run must be at least as fast, within
// the throughput noise band. The returned deltas use metric
// "scaling_all_vs_serial" with Old = serial and New = all-cores
// respondents/sec; a violation means adding workers made the pipeline
// slower — the scaling cliff the batched kernels exist to prevent.
// Reports tagged serial_host still gate (their "all-cores" run is the
// same serial run, so the invariant holds trivially within noise).
func ScalingDeltas(r *Report, bands Bands) []Delta {
	bands = bands.withDefaults()
	serial := map[int]Run{}
	for _, run := range r.Runs {
		if run.Workers == 1 {
			serial[run.N] = run
		}
	}
	var out []Delta
	for _, run := range r.Runs {
		if run.Workers != 0 {
			continue
		}
		s, ok := serial[run.N]
		if !ok {
			continue
		}
		change := relChange(s.RespondentsPerSec, run.RespondentsPerSec)
		out = append(out, Delta{
			N: run.N, Workers: 0, Metric: "scaling_all_vs_serial",
			Old: s.RespondentsPerSec, New: run.RespondentsPerSec, Change: change,
			Regression: change < -bands.Throughput,
		})
	}
	return out
}

// HistoryRun is the compact per-configuration record kept in the
// benchmark trajectory (the full span trees stay in the report files).
type HistoryRun struct {
	N                   int     `json:"n"`
	Workers             int     `json:"workers"`
	BestSeconds         float64 `json:"best_seconds"`
	RespondentsPerSec   float64 `json:"respondents_per_sec"`
	AllocsPerRespondent float64 `json:"allocs_per_respondent"`
	GCPauseTotalMS      float64 `json:"gc_pause_total_ms"`
	GCCount             uint32  `json:"gc_count"`
	// Latency carries the per-stage quantiles verbatim (StageLatency
	// is already compact), so the trajectory records tail behaviour
	// alongside throughput.
	Latency []StageLatency `json:"latency,omitempty"`
}

// HistoryEntry is one line of BENCH_history.jsonl: one benchmark run,
// appended at comparison time so the trajectory accretes across
// commits and machines.
type HistoryEntry struct {
	Timestamp string `json:"timestamp"`
	Appended  string `json:"appended"` // when this line was written
	Seed      int64  `json:"seed"`
	Host      Host   `json:"host"`
	// VCS names the measured revision (v8+ entries; nil before — old
	// lines parse fine, their provenance is simply unknown).
	VCS  *runlog.VCS  `json:"vcs,omitempty"`
	Runs []HistoryRun `json:"runs"`
	// IO carries the serialization benchmarks verbatim — IORun is
	// already compact (no span trees to strip).
	IO []IORun `json:"io,omitempty"`
	// Query carries the query-engine benchmarks verbatim (also compact).
	Query []QueryRun `json:"query,omitempty"`
}

// HistoryFromReport compacts a report into its trajectory record.
// appendedAt stamps when the line is written (distinct from the
// report's own timestamp, which records when it was measured).
func HistoryFromReport(r *Report, appendedAt time.Time) HistoryEntry {
	e := HistoryEntry{
		Timestamp: r.Timestamp,
		Appended:  appendedAt.UTC().Format(time.RFC3339),
		Seed:      r.Seed,
		Host:      r.Host,
		VCS:       r.VCS,
	}
	for _, run := range r.Runs {
		e.Runs = append(e.Runs, HistoryRun{
			N: run.N, Workers: run.Workers,
			BestSeconds:         run.BestSeconds,
			RespondentsPerSec:   run.RespondentsPerSec,
			AllocsPerRespondent: run.AllocsPerRespondent,
			GCPauseTotalMS:      run.GCPauseTotalMS,
			GCCount:             run.GCCount,
			Latency:             run.Latency,
		})
	}
	e.IO = append(e.IO, r.IO...)
	e.Query = append(e.Query, r.Query...)
	return e
}

// AppendHistory appends one JSONL line for the report to path
// (O_APPEND: concurrent appenders interleave whole lines, and an
// existing trajectory is never rewritten).
func AppendHistory(path string, r *Report, appendedAt time.Time) error {
	line, err := json.Marshal(HistoryFromReport(r, appendedAt))
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadHistory parses a BENCH_history.jsonl trajectory, oldest first.
// Blank lines are skipped; a malformed line is an error (the file is
// machine-written).
func ReadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("benchcmp: %s:%d: %w", path, lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadHistoryLenient parses a trajectory like ReadHistory but skips
// unparsable lines instead of failing: blank lines, malformed JSON,
// and a truncated final line (a crashed appender leaves one with no
// trailing newline) are counted in skipped and dropped. Entries from
// any schema era parse — fields a version lacks are simply zero/nil —
// so one mixed v1..v9 file yields every readable record. This is what
// `fpstat trend` reads: a trajectory accreted over years must not
// become unreadable over its worst line.
func ReadHistoryLenient(path string) (entries []HistoryEntry, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(line, &e); err != nil {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return entries, skipped, nil
}
