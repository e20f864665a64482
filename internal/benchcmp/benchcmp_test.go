package benchcmp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// mkReport builds a two-configuration report for comparison tests.
func mkReport(thr199, thr10k, allocs, gcPause float64) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Tool:          "fpbench",
		Timestamp:     "2026-01-01T00:00:00Z",
		Seed:          42,
		Runs: []Run{
			{N: 199, Workers: 1, BestSeconds: 199 / thr199, RespondentsPerSec: thr199,
				AllocsPerRespondent: allocs, GCPauseTotalMS: gcPause},
			{N: 10000, Workers: 0, BestSeconds: 10000 / thr10k, RespondentsPerSec: thr10k,
				AllocsPerRespondent: allocs, GCPauseTotalMS: gcPause},
		},
	}
}

// TestCompareDetectsThroughputRegression pins the acceptance
// criterion: an artificially injected 20% throughput drop is a
// regression under the default 5% band.
func TestCompareDetectsThroughputRegression(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2)
	cur := mkReport(8000, 26400, 7.3, 2) // −20% on both configurations

	res := Compare(old, cur, Bands{})
	regs := res.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (throughput on both configs): %+v", len(regs), regs)
	}
	for _, d := range regs {
		if d.Metric != "respondents_per_sec" {
			t.Fatalf("unexpected regression metric %q", d.Metric)
		}
		if d.Change > -0.19 || d.Change < -0.21 {
			t.Fatalf("change = %.3f, want ≈ -0.20", d.Change)
		}
	}
}

func TestCompareWithinBandPasses(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2)
	cur := mkReport(9700, 32100, 7.5, 2.5) // ~3% thr drop, small alloc/gc noise

	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("noise flagged as regression: %+v", regs)
	}
	if len(res.Deltas) != 6 {
		t.Fatalf("got %d deltas, want 6 (3 metrics × 2 configs)", len(res.Deltas))
	}
}

func TestCompareImprovementNeverRegresses(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 10)
	cur := mkReport(20000, 66000, 1.0, 0.5)
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}
}

// TestCompareAllocFloor pins the absolute floor: tiny absolute alloc
// growth never gates even when relatively large, and growth from a
// zero baseline gates once past the floor.
func TestCompareAllocFloor(t *testing.T) {
	old := mkReport(10000, 33000, 0.05, 2)
	cur := mkReport(10000, 33000, 0.5, 2) // 10× relative, +0.45 absolute
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("sub-floor alloc growth gated: %+v", regs)
	}

	old = mkReport(10000, 33000, 0, 2)
	cur = mkReport(10000, 33000, 8, 2) // from zero past the floor
	regs := Compare(old, cur, Bands{}).Regressions()
	if len(regs) != 2 {
		t.Fatalf("allocs-from-zero not gated: %+v", regs)
	}
	for _, d := range regs {
		if d.Metric != "allocs_per_respondent" {
			t.Fatalf("unexpected regression metric %q", d.Metric)
		}
	}
}

func TestCompareGCPauseFloor(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 1)
	cur := mkReport(10000, 33000, 7.3, 4) // 4× relative but only +3ms
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("sub-floor GC pause growth gated: %+v", regs)
	}
	cur = mkReport(10000, 33000, 7.3, 20) // +19ms and 20× — gates
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 2 {
		t.Fatalf("GC pause blow-up not gated: %+v", regs)
	}
}

func TestCompareCustomBands(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2)
	cur := mkReport(9000, 29700, 7.3, 2) // −10%
	if regs := Compare(old, cur, Bands{Throughput: 0.15}).Regressions(); len(regs) != 0 {
		t.Fatalf("−10%% gated under a 15%% band: %+v", regs)
	}
	if regs := Compare(old, cur, Bands{Throughput: 0.02}).Regressions(); len(regs) != 2 {
		t.Fatalf("−10%% not gated under a 2%% band: %+v", regs)
	}
}

func TestCompareDisjointConfigs(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2)
	cur := &Report{Runs: []Run{{N: 199, Workers: 1, RespondentsPerSec: 10000,
		AllocsPerRespondent: 7.3, GCPauseTotalMS: 2}, {N: 50, Workers: 2, RespondentsPerSec: 1}}}

	res := Compare(old, cur, Bands{})
	if len(res.Deltas) != 3 {
		t.Fatalf("got %d deltas, want 3 (only the shared config)", len(res.Deltas))
	}
	if !reflect.DeepEqual(res.OnlyOld, []string{"n=10000/workers=0"}) {
		t.Fatalf("OnlyOld = %v", res.OnlyOld)
	}
	if !reflect.DeepEqual(res.OnlyNew, []string{"n=50/workers=2"}) {
		t.Fatalf("OnlyNew = %v", res.OnlyNew)
	}
}

func TestNSizesAndMissing(t *testing.T) {
	r := mkReport(1, 1, 0, 0)
	if got := r.NSizes(); !reflect.DeepEqual(got, []int{199, 10000}) {
		t.Fatalf("NSizes = %v", got)
	}
	big := &Report{Runs: []Run{{N: 199}, {N: 10000}, {N: 1000000}}}
	if got := MissingNSizes(big, r); !reflect.DeepEqual(got, []int{1000000}) {
		t.Fatalf("MissingNSizes = %v, want [1000000]", got)
	}
	if got := MissingNSizes(r, big); got != nil {
		t.Fatalf("superset reported missing sizes: %v", got)
	}
}

// mkIOReport builds a report whose io section has one binary decode
// and one json-rows decode entry at n=10000.
func mkIOReport(binMB, rowsMB float64) *Report {
	const bytes = 1 << 20
	mk := func(format string, mbps float64) IORun {
		return IORun{
			N: 10000, Format: format, Op: "decode", Reps: 2, Bytes: bytes,
			BestSeconds: 1 / mbps, MBPerSec: mbps, RespondentsPerSec: 10000 * mbps,
		}
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		IO:            []IORun{mk("binary", binMB), mk("json-rows", rowsMB)},
	}
}

// TestCompareIOGatesThroughput pins the io regression gate: a drop in
// one format's decode bandwidth beyond the throughput band gates, and
// matching is by (n, format, op) so the other format is untouched.
func TestCompareIOGatesThroughput(t *testing.T) {
	old := mkIOReport(500, 20)
	cur := mkIOReport(400, 20) // binary −20%, json-rows flat

	res := Compare(old, cur, Bands{})
	regs := res.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (mb_per_sec + respondents_per_sec on binary): %+v", len(regs), regs)
	}
	for _, d := range regs {
		if !d.IsIO() || d.Format != "binary" || d.Op != "decode" {
			t.Fatalf("regression on the wrong configuration: %+v", d)
		}
		if d.Config() != "n=10000/io/binary/decode" {
			t.Fatalf("Config() = %q", d.Config())
		}
	}

	// Within-band io noise passes.
	cur = mkIOReport(490, 19.6) // −2%
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("io noise gated: %+v", regs)
	}
}

// TestCompareIODisjoint checks io configurations present in only one
// report are listed but never gate — the shape of a schema v3→v4
// baseline upgrade.
func TestCompareIODisjoint(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2) // no io section at all
	cur := mkIOReport(500, 20)
	cur.Runs = old.Runs

	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("new io section gated against nothing: %+v", regs)
	}
	if !reflect.DeepEqual(res.OnlyNew, []string{"n=10000/io/binary/decode", "n=10000/io/json-rows/decode"}) {
		t.Fatalf("OnlyNew = %v", res.OnlyNew)
	}
	res = Compare(cur, old, Bands{})
	if !reflect.DeepEqual(res.OnlyOld, []string{"n=10000/io/binary/decode", "n=10000/io/json-rows/decode"}) {
		t.Fatalf("OnlyOld = %v", res.OnlyOld)
	}
}

// TestHistoryCarriesIO checks the trajectory line keeps the io runs.
func TestHistoryCarriesIO(t *testing.T) {
	r := mkIOReport(500, 20)
	e := HistoryFromReport(r, time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	if !reflect.DeepEqual(e.IO, r.IO) {
		t.Fatalf("history io section = %+v, want %+v", e.IO, r.IO)
	}
}

func TestParseRejectsNewerSchema(t *testing.T) {
	if _, err := Parse([]byte(`{"schema_version": 99}`)); err == nil {
		t.Fatal("schema v99 accepted")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	r := mkReport(10000, 33000, 7.3, 2)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestHistoryAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	r1 := mkReport(10000, 33000, 7.3, 2)
	r2 := mkReport(11000, 35000, 7.0, 1)
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	if err := AppendHistory(path, r1, at); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, r2, at.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d history entries, want 2", len(entries))
	}
	if entries[0].Appended != "2026-08-06T12:00:00Z" {
		t.Fatalf("appended stamp = %q", entries[0].Appended)
	}
	if len(entries[1].Runs) != 2 || entries[1].Runs[1].RespondentsPerSec != 35000 {
		t.Fatalf("history run data mangled: %+v", entries[1].Runs)
	}
	// Appends accrete: the first entry is untouched by the second write.
	if entries[0].Runs[0].RespondentsPerSec != 10000 {
		t.Fatalf("first entry rewritten: %+v", entries[0].Runs[0])
	}
}

func TestReadHistoryRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	if err := os.WriteFile(path, []byte("{\"timestamp\":\"x\"}\nnot-json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHistory(path); err == nil {
		t.Fatal("malformed history line accepted")
	}
}

// scalingReport builds a one-size report with a serial and an
// all-cores run at the given throughputs.
func scalingReport(serial, all float64) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Runs: []Run{
			{N: 10000, Workers: 1, BestSeconds: 10000 / serial, RespondentsPerSec: serial},
			{N: 10000, Workers: 4, BestSeconds: 10000 / serial, RespondentsPerSec: serial},
			{N: 10000, Workers: 0, BestSeconds: 10000 / all, RespondentsPerSec: all},
		},
	}
}

// TestScalingDeltasGateSlowParallel pins the scaling cliff gate: an
// all-cores run 20% slower than serial is a regression of the report
// itself, regardless of history.
func TestScalingDeltasGateSlowParallel(t *testing.T) {
	ds := ScalingDeltas(scalingReport(10000, 8000), Bands{})
	if len(ds) != 1 {
		t.Fatalf("got %d scaling deltas, want 1: %+v", len(ds), ds)
	}
	d := ds[0]
	if d.Metric != "scaling_all_vs_serial" || !d.Regression {
		t.Fatalf("slow parallel run not gated: %+v", d)
	}
	if d.Config() != "n=10000/workers=0" {
		t.Fatalf("config = %q", d.Config())
	}
}

// TestScalingDeltasPassFastOrEqual: parity (the GOMAXPROCS=1 host,
// where all runs clamp to serial) and genuine speedups both pass, as
// does a within-band wobble.
func TestScalingDeltasPassFastOrEqual(t *testing.T) {
	for _, tc := range []struct{ serial, all float64 }{
		{10000, 10000}, // parity: serial host
		{10000, 31000}, // real speedup
		{10000, 9700},  // 3% wobble, inside the default 5% band
	} {
		for _, d := range ScalingDeltas(scalingReport(tc.serial, tc.all), Bands{}) {
			if d.Regression {
				t.Fatalf("serial=%.0f all=%.0f flagged: %+v", tc.serial, tc.all, d)
			}
		}
	}
}

// TestScalingDeltasNeedBothLegs: a report without a workers=1 baseline
// (or without an all-cores run) yields no scaling delta rather than a
// spurious verdict.
func TestScalingDeltasNeedBothLegs(t *testing.T) {
	r := &Report{Runs: []Run{{N: 199, Workers: 0, RespondentsPerSec: 5000}}}
	if ds := ScalingDeltas(r, Bands{}); len(ds) != 0 {
		t.Fatalf("scaling delta without serial baseline: %+v", ds)
	}
	r = &Report{Runs: []Run{{N: 199, Workers: 1, RespondentsPerSec: 5000}}}
	if ds := ScalingDeltas(r, Bands{}); len(ds) != 0 {
		t.Fatalf("scaling delta without all-cores run: %+v", ds)
	}
}

// TestCompareRunsScalingGate: the gate rides along in Compare, so
// `fpbench compare` (and make bench-gate) enforce it with no extra
// invocation.
func TestCompareRunsScalingGate(t *testing.T) {
	old := scalingReport(10000, 10000)
	cur := scalingReport(10000, 7000) // parallel now loses to serial
	var found *Delta
	res := Compare(old, cur, Bands{})
	for i, d := range res.Deltas {
		if d.Metric == "scaling_all_vs_serial" {
			found = &res.Deltas[i]
			break
		}
	}
	if found == nil || !found.Regression {
		t.Fatalf("Compare did not gate the scaling cliff: %+v", found)
	}
}

// TestSerialHostRoundTrip pins the schema-v5 host tag: set it
// survives encode/decode, unset it is omitted entirely.
func TestSerialHostRoundTrip(t *testing.T) {
	r := &Report{SchemaVersion: SchemaVersion, Host: Host{GOMAXPROCS: 1, SerialHost: true}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Host.SerialHost {
		t.Fatal("serial_host tag lost in round trip")
	}
	data, _ = json.Marshal(&Report{SchemaVersion: SchemaVersion})
	if bytesContains(data, `"serial_host"`) {
		t.Fatalf("untagged report serializes serial_host: %s", data)
	}
}

func bytesContains(b []byte, s string) bool { return strings.Contains(string(b), s) }

// TestCompareIOTimerNoiseFloor pins the io timing floor: a tiny-cohort
// serialization finishing in tens of microseconds in both reports is
// below timer resolution, so even a large relative throughput "drop" is
// reported but never gates. Crossing the floor in either report gates
// normally.
func TestCompareIOTimerNoiseFloor(t *testing.T) {
	mk := func(sec float64) *Report {
		return &Report{SchemaVersion: SchemaVersion, IO: []IORun{{
			N: 199, Format: "binary", Op: "decode", Bytes: 2048,
			BestSeconds: sec, MBPerSec: 0.002 / sec, RespondentsPerSec: 199 / sec,
		}}}
	}
	old, cur := mk(0.00005), mk(0.00007) // -29% throughput, 50µs vs 70µs
	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("sub-floor io jitter gated: %+v", regs)
	}
	var saw bool
	for _, d := range res.Deltas {
		if d.IsIO() && d.Metric == "mb_per_sec" {
			saw = true
			if d.Change > -0.25 {
				t.Fatalf("sub-floor delta not reported faithfully: %+v", d)
			}
		}
	}
	if !saw {
		t.Fatal("sub-floor io delta dropped from the report")
	}

	// The same relative drop above the floor still gates.
	old, cur = mk(0.05), mk(0.07)
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 2 {
		t.Fatalf("above-floor io drop not gated: %+v", regs)
	}
}

// latReport builds a one-configuration report whose sample_block stage
// has the given p99 and count (other quantiles scaled consistently).
func latReport(p99 float64, count int64) *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		Runs: []Run{{
			N: 199, Workers: 1, BestSeconds: 0.02, RespondentsPerSec: 10000,
			Latency: []StageLatency{{
				Stage: "sample_block", Count: count,
				P50NS: p99 * 0.4, P90NS: p99 * 0.8, P99NS: p99, P999NS: p99 * 1.2,
			}},
		}},
	}
}

// TestCompareLatencyGatesP99 pins the acceptance criterion: an
// injected p99 regression beyond the 25% band on a measurable stage
// (above the ns floor, enough observations) fails the comparison.
func TestCompareLatencyGatesP99(t *testing.T) {
	old := latReport(500_000, 1000)
	cur := latReport(900_000, 1000) // +80% p99
	res := Compare(old, cur, Bands{})
	regs := res.Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1 (p99): %+v", len(regs), regs)
	}
	d := regs[0]
	if d.Metric != "p99_ns" || !d.IsLatency() || d.Stage != "sample_block" {
		t.Fatalf("wrong regression delta: %+v", d)
	}
	if got, want := d.Config(), "n=199/workers=1/latency/sample_block"; got != want {
		t.Fatalf("Config() = %q, want %q", got, want)
	}

	// Within the band: reported, not gated.
	cur = latReport(590_000, 1000) // +18%
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("within-band p99 growth gated: %+v", regs)
	}
	// An improvement never regresses.
	cur = latReport(200_000, 1000)
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("p99 improvement gated: %+v", regs)
	}
}

// TestCompareLatencyMinCountFloor pins the observation-count floor: the
// p99 of a handful of samples is reported but never gates, on either
// side of the comparison.
func TestCompareLatencyMinCountFloor(t *testing.T) {
	old := latReport(500_000, 10) // below the default 32 floor
	cur := latReport(2_000_000, 10)
	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("low-count p99 jitter gated: %+v", regs)
	}
	var saw bool
	for _, d := range res.Deltas {
		if d.IsLatency() {
			saw = true
			if d.Change < 2.9 {
				t.Fatalf("low-count delta not reported faithfully: %+v", d)
			}
		}
	}
	if !saw {
		t.Fatal("low-count latency delta dropped from the report")
	}
	// Low count in just the new report also blocks gating.
	old, cur = latReport(500_000, 1000), latReport(2_000_000, 10)
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("new-side low count gated: %+v", regs)
	}
}

// TestCompareLatencyNSFloor pins the absolute floor: sub-100µs p99s
// are timer noise and never gate, but a stage crossing the floor in
// the new report does.
func TestCompareLatencyNSFloor(t *testing.T) {
	old := latReport(20_000, 1000)
	cur := latReport(60_000, 1000) // +200%, but both under 100µs
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("sub-floor p99 jitter gated: %+v", regs)
	}
	// Crossing the floor gates: 20µs -> 200µs is a real regression.
	cur = latReport(200_000, 1000)
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 1 {
		t.Fatalf("floor-crossing p99 growth not gated: %+v", regs)
	}
}

// TestCompareLatencyCoverageChange pins the skip rule: stages present
// in only one report produce no deltas and no OnlyOld/OnlyNew noise
// (instrumentation coverage changes across versions).
func TestCompareLatencyCoverageChange(t *testing.T) {
	old := latReport(500_000, 1000)
	old.Runs[0].Latency = append(old.Runs[0].Latency, StageLatency{
		Stage: "retired_stage", Count: 1000, P99NS: 1e9,
	})
	cur := latReport(500_000, 1000)
	cur.Runs[0].Latency = append(cur.Runs[0].Latency, StageLatency{
		Stage: "new_stage", Count: 1000, P99NS: 1e9,
	})
	res := Compare(old, cur, Bands{})
	for _, d := range res.Deltas {
		if d.Stage == "retired_stage" || d.Stage == "new_stage" {
			t.Fatalf("one-sided stage produced a delta: %+v", d)
		}
	}
	if len(res.OnlyOld)+len(res.OnlyNew) != 0 {
		t.Fatalf("one-sided stages leaked into OnlyOld/OnlyNew: %v %v", res.OnlyOld, res.OnlyNew)
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("unchanged report gated: %+v", regs)
	}
}

// TestCompareV5LatencyCompat pins cross-version comparison: a v5
// report (no latency sections anywhere) compares cleanly against a v6
// report that has them — no latency deltas, no regressions, and the
// v5 document still parses.
func TestCompareV5LatencyCompat(t *testing.T) {
	data := []byte(`{"schema_version": 5, "runs": [
		{"n": 199, "workers": 1, "best_seconds": 0.02, "respondents_per_sec": 10000}
	]}`)
	old, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	cur := latReport(500_000, 1000)
	res := Compare(old, cur, Bands{})
	for _, d := range res.Deltas {
		if d.IsLatency() {
			t.Fatalf("v5 old report produced a latency delta: %+v", d)
		}
	}
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("v5 -> v6 comparison gated: %+v", regs)
	}
	// And the reverse direction (new report without latency) as well.
	res = Compare(cur, old, Bands{})
	for _, d := range res.Deltas {
		if d.IsLatency() {
			t.Fatalf("latency delta against a v5 new report: %+v", d)
		}
	}
}

// TestCompareIOLatency pins the io codec latency gate: FPDS per-block
// p99 growth on a binary io entry regresses with the io configuration
// in its identity.
func TestCompareIOLatency(t *testing.T) {
	mk := func(p99 float64) *Report {
		return &Report{SchemaVersion: SchemaVersion, IO: []IORun{{
			N: 199, Format: "binary", Op: "decode", Bytes: 1 << 20,
			BestSeconds: 0.05, MBPerSec: 20, RespondentsPerSec: 199 / 0.05,
			Latency: []StageLatency{{
				Stage: "fpds_decode_block", Count: 1000,
				P50NS: p99 / 2, P90NS: p99 * 0.9, P99NS: p99, P999NS: p99 * 1.1,
			}},
		}}}
	}
	old, cur := mk(500_000), mk(1_000_000)
	regs := Compare(old, cur, Bands{}).Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	d := regs[0]
	if !d.IsIO() || !d.IsLatency() || d.Metric != "p99_ns" {
		t.Fatalf("wrong io latency delta: %+v", d)
	}
	if got, want := d.Config(), "n=199/io/binary/decode/latency/fpds_decode_block"; got != want {
		t.Fatalf("Config() = %q, want %q", got, want)
	}
}

// TestHistoryCarriesLatency pins the trajectory: per-stage quantiles
// survive compaction into BENCH_history.jsonl for both pipeline runs
// and io entries.
func TestHistoryCarriesLatency(t *testing.T) {
	r := latReport(500_000, 1000)
	r.IO = []IORun{{
		N: 199, Format: "binary", Op: "encode",
		Latency: []StageLatency{{Stage: "fpds_encode_block", Count: 70, P99NS: 1e6}},
	}}
	e := HistoryFromReport(r, time.Unix(0, 0))
	if len(e.Runs) != 1 || !reflect.DeepEqual(e.Runs[0].Latency, r.Runs[0].Latency) {
		t.Fatalf("history dropped run latency: %+v", e.Runs)
	}
	if len(e.IO) != 1 || !reflect.DeepEqual(e.IO[0].Latency, r.IO[0].Latency) {
		t.Fatalf("history dropped io latency: %+v", e.IO)
	}
}

// mkQueryReport builds a v7 report with two query legs: a streaming
// grouped mean and an in-memory full scan, at the given
// respondents/sec (durations sit above the io timing floor).
func mkQueryReport(streamRPS, memRPS float64) *Report {
	mk := func(mode, name string, rps float64) QueryRun {
		return QueryRun{
			N: 10000, Mode: mode, Name: name, Workers: 1, Reps: 3,
			Selected: 10000, BestSeconds: 10000 / rps, RespondentsPerSec: rps,
		}
	}
	return &Report{
		SchemaVersion: SchemaVersion,
		Query: []QueryRun{
			mk("stream", "grouped_mean", streamRPS),
			mk("mem", "scan_mean_score", memRPS),
		},
	}
}

// TestCompareQueryGatesThroughput pins the query regression gate: a
// throughput drop beyond the band in one (n, mode, name, workers)
// configuration gates, matched by key so the other leg is untouched.
func TestCompareQueryGatesThroughput(t *testing.T) {
	old := mkQueryReport(2e6, 8e6)
	cur := mkQueryReport(1.5e6, 8e6) // stream −25%, mem flat

	regs := Compare(old, cur, Bands{}).Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	d := regs[0]
	if !d.IsQuery() || d.Mode != "stream" || d.Name != "grouped_mean" || d.Metric != "respondents_per_sec" {
		t.Fatalf("regression on the wrong configuration: %+v", d)
	}
	if got, want := d.Config(), "n=10000/query/stream/grouped_mean/workers=1"; got != want {
		t.Fatalf("Config() = %q, want %q", got, want)
	}

	// Within-band noise passes.
	cur = mkQueryReport(1.96e6, 7.9e6) // −2%
	if regs := Compare(old, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("query noise gated: %+v", regs)
	}
}

// TestCompareQueryTimerNoiseFloor pins the floor: sub-millisecond
// query legs (tiny cohorts) report their deltas but never gate.
func TestCompareQueryTimerNoiseFloor(t *testing.T) {
	old := mkQueryReport(2e6, 8e6)
	cur := mkQueryReport(1e6, 8e6) // −50%, but both < 1ms at n=100
	for i := range old.Query {
		old.Query[i].N = 100
		old.Query[i].BestSeconds = 100 / old.Query[i].RespondentsPerSec
		cur.Query[i].N = 100
		cur.Query[i].BestSeconds = 100 / cur.Query[i].RespondentsPerSec
	}
	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("sub-floor query delta gated: %+v", regs)
	}
	// The delta is still reported.
	found := false
	for _, d := range res.Deltas {
		if d.IsQuery() && d.Metric == "respondents_per_sec" && d.Change < -0.4 {
			found = true
		}
	}
	if !found {
		t.Fatal("sub-floor query delta not reported")
	}
}

// TestCompareQueryLatencyGatesP99 pins the query_block stage latency
// gate under the latency band.
func TestCompareQueryLatencyGatesP99(t *testing.T) {
	mk := func(p99 float64) *Report {
		r := mkQueryReport(2e6, 8e6)
		r.Query[0].Latency = []StageLatency{{Stage: "query_block", Count: 200, P99NS: p99}}
		return r
	}
	old, cur := mk(400_000), mk(600_000) // +50% beyond the 25% band
	regs := Compare(old, cur, Bands{}).Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	d := regs[0]
	if !d.IsQuery() || !d.IsLatency() || d.Stage != "query_block" {
		t.Fatalf("wrong query latency delta: %+v", d)
	}
	if got, want := d.Config(), "n=10000/query/stream/grouped_mean/workers=1/latency/query_block"; got != want {
		t.Fatalf("Config() = %q, want %q", got, want)
	}
}

// TestCompareQueryBackCompat pins the v5/v6 upgrade shape: an old
// report without a query section compares cleanly against a v7 report
// (and vice versa) — the new legs are listed, never gated.
func TestCompareQueryBackCompat(t *testing.T) {
	old := mkReport(10000, 33000, 7.3, 2) // pipeline runs only, no query
	old.SchemaVersion = 6
	cur := mkQueryReport(2e6, 8e6)
	cur.Runs = old.Runs

	res := Compare(old, cur, Bands{})
	if regs := res.Regressions(); len(regs) != 0 {
		t.Fatalf("new query section gated against nothing: %+v", regs)
	}
	want := []string{
		"n=10000/query/stream/grouped_mean/workers=1",
		"n=10000/query/mem/scan_mean_score/workers=1",
	}
	if !reflect.DeepEqual(res.OnlyNew, want) {
		t.Fatalf("OnlyNew = %v, want %v", res.OnlyNew, want)
	}
	res = Compare(cur, old, Bands{})
	if !reflect.DeepEqual(res.OnlyOld, want) {
		t.Fatalf("OnlyOld = %v, want %v", res.OnlyOld, want)
	}

	// A v5 document (no schema_version bump needed — the field just
	// reads as 5) still parses and round-trips.
	v5 := []byte(`{"schema_version": 5, "runs": [{"n": 199, "workers": 1, "respondents_per_sec": 10000,
		"allocs_per_respondent": 7.3, "gc_pause_total_ms": 2}]}`)
	r, err := Parse(v5)
	if err != nil {
		t.Fatalf("v5 parse: %v", err)
	}
	if len(r.Query) != 0 {
		t.Fatalf("v5 report grew a query section: %+v", r.Query)
	}
	if regs := Compare(r, cur, Bands{}).Regressions(); len(regs) != 0 {
		t.Fatalf("v5-vs-v7 compare gated: %+v", regs)
	}
}

// TestHistoryCarriesQuery checks the trajectory line keeps the query
// runs verbatim.
func TestHistoryCarriesQuery(t *testing.T) {
	r := mkQueryReport(2e6, 8e6)
	e := HistoryFromReport(r, time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if !reflect.DeepEqual(e.Query, r.Query) {
		t.Fatalf("history query section = %+v, want %+v", e.Query, r.Query)
	}
}

// TestParseIgnoresRetiredDistrib: v9 reports written while the
// multi-process "distrib" array existed still parse, and the retired
// section contributes nothing to a comparison.
func TestParseIgnoresRetiredDistrib(t *testing.T) {
	v9 := []byte(`{"schema_version": 9, "runs": [{"n": 199, "workers": 1, "respondents_per_sec": 10000,
		"allocs_per_respondent": 7.3, "gc_pause_total_ms": 2}],
		"distrib": [{"n": 10000, "procs": 4, "workers_per_proc": 0, "reps": 2, "best_seconds": 0.08, "respondents_per_sec": 125000}]}`)
	r, err := Parse(v9)
	if err != nil {
		t.Fatalf("v9 parse: %v", err)
	}
	res := Compare(r, r, Bands{})
	if regs := res.Regressions(); len(regs) != 0 || len(res.OnlyOld) != 0 || len(res.OnlyNew) != 0 {
		t.Fatalf("retired distrib section surfaced in compare: %+v", res)
	}
}
