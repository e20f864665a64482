package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/telemetry"
)

// raiseGOMAXPROCS lifts GOMAXPROCS to at least p for the duration of a
// test. parallel.Workers clamps explicit worker counts to GOMAXPROCS
// (the bench-host honesty fix), so on a small host the workers=4/16
// legs of the invariance gates would silently degrade to serial runs —
// raising the P count keeps the gates exercising real concurrency.
func raiseGOMAXPROCS(t *testing.T, p int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= p {
		return
	}
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// goldenSnapshot runs an n-respondent study at the given worker count
// and hashes the encoded datasets plus all 22 figure tables and the
// rendered headline claims.
func goldenSnapshot(t *testing.T, n, workers int) golden {
	t.Helper()
	return resultsSnapshot(t, goldenStudy(n, workers).Run())
}

func goldenStudy(n, workers int) Study {
	return Study{Seed: 42, NMain: n, NStudent: 52, Workers: workers}
}

// resultsSnapshot hashes a run's encoded datasets, figures and claims.
func resultsSnapshot(t *testing.T, r *Results) golden {
	t.Helper()
	var g golden
	var mainJSON, studentJSON bytes.Buffer
	if err := r.Main.Cols.WriteJSON(&mainJSON); err != nil {
		t.Fatal(err)
	}
	if err := r.StudentCols.WriteJSON(&studentJSON); err != nil {
		t.Fatal(err)
	}
	g.main = sha256.Sum256(mainJSON.Bytes())
	g.students = sha256.Sum256(studentJSON.Bytes())
	g.figures = figureClaimsFingerprint(t, r)
	return g
}

// golden is the byte-level fingerprint of one full study run.
type golden struct {
	main     [32]byte
	students [32]byte
	// figures holds the 22 figure hashes, then the claims hash.
	figures [22 + 1][32]byte
}

// fingerprintLabel names entry i of a figures-plus-claims fingerprint.
func fingerprintLabel(i int) string {
	if i == 22 {
		return "the headline claims"
	}
	return fmt.Sprintf("figure %d", i+1)
}

// TestGoldenParallelDeterminism is the determinism contract of the
// parallel pipeline: for a fixed seed, the generated datasets and every
// rendered figure must be byte-identical at any worker count. It runs a
// 5000-respondent study at workers 1, 4, and 16 and compares hashes of
// the encoded datasets plus all 22 figure tables.
func TestGoldenParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-respondent study; skipped in -short mode")
	}
	const n = 5000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1)
	for _, workers := range []int{4, 16} {
		got := goldenSnapshot(t, n, workers)
		if got.main != want.main {
			t.Errorf("workers=%d: main dataset differs from sequential run", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: student dataset differs from sequential run", workers)
		}
		for i := range got.figures {
			if got.figures[i] != want.figures[i] {
				t.Errorf("workers=%d: %s differs from sequential run", workers, fingerprintLabel(i))
			}
		}
	}
}

// TestWorkerInvarianceBeyondTwoCPUs runs worker counts that exceed a
// small host's CPUs: with GOMAXPROCS raised to 8, an n=50,000 cohort
// (13 scan blocks, 13 generation shards) must give the same intervention
// counts and the same query result over its in-memory columns and over
// its FPDS shard at workers 1, 3 and 8.
func TestWorkerInvarianceBeyondTwoCPUs(t *testing.T) {
	if testing.Short() {
		t.Skip("50,000-respondent cohort; skipped in -short mode")
	}
	const n, seed = 50_000, 42
	raiseGOMAXPROCS(t, 8)
	var overrides []func(*respondent.Profile)
	for _, level := range []string{"None", "One or more courses"} {
		overrides = append(overrides, func(p *respondent.Profile) { p.FormalTraining = level })
	}
	d := respondent.GenerateMainColumnar(seed, n, 0, nil, respondent.Instrumentation{}).Cols
	s := d.Schema
	q := query.Query{
		Filter: []query.Predicate{query.U64Any{Col: s.MustColumnIndex(quiz.BGInformal), Mask: 0b11}},
		Key: query.SingleKey{Col: s.MustColumnIndex(quiz.BGContribSize),
			Options: s.Column(s.MustColumnIndex(quiz.BGContribSize)).Options},
		Values: []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.overflow")}},
	}
	sources := map[string]query.Source{
		"memory": query.NewDatasetSource(d),
		"shard":  query.NewShardSource(shardOf(t, d, colstore.IOOptions{})),
	}
	wantCounts := respondent.TreatedCoreCorrect(seed, n, 1, overrides)
	want, err := query.Run(sources["memory"], q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalCount() == 0 {
		t.Fatal("query selects no rows")
	}
	for _, workers := range []int{1, 3, 8} {
		if got := respondent.TreatedCoreCorrect(seed, n, workers, overrides); !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("workers=%d: intervention counts %v, want %v", workers, got, wantCounts)
		}
		for name, src := range sources {
			got, err := query.Run(src, q, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: query result differs from the in-memory serial run", name, workers)
			}
		}
	}
}

// probedSweep installs the stage probe (and, if withTracer, a tracer on
// top), runs an n-respondent study at workers 1, 4, and 16, and fails
// the test if any dataset or figure hash differs from an uninstrumented
// baseline. Figures and claims never grade, so each run also renders
// one grading analysis, ConfidenceReport, which must match the
// baseline's too; grading then runs under the probe. It returns the
// registry and tracer (nil when withTracer is false) for the caller's
// non-vacuity checks; the probe and tracer are uninstalled when the
// test ends.
func probedSweep(t *testing.T, n int, withTracer bool) (*telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	raiseGOMAXPROCS(t, 16)
	confidenceSum := func(r *Results) [32]byte {
		return sha256.Sum256([]byte(r.ConfidenceReport().String()))
	}
	base := goldenStudy(n, 1).Run()
	want := resultsSnapshot(t, base)
	wantConfidence := confidenceSum(base)

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	t.Cleanup(func() { telemetry.Install(nil) })
	var tracer *telemetry.Tracer
	if withTracer {
		tracer = telemetry.NewTracer(8, 1<<12)
		telemetry.SetTracer(tracer)
		t.Cleanup(func() { telemetry.SetTracer(nil) })
	}
	for _, workers := range []int{1, 4, 16} {
		r := goldenStudy(n, workers).Run()
		got := resultsSnapshot(t, r)
		if confidenceSum(r) != wantConfidence {
			t.Errorf("workers=%d: instrumentation changed the confidence report", workers)
		}
		if got.main != want.main {
			t.Errorf("workers=%d: instrumentation changed the main dataset", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: instrumentation changed the student dataset", workers)
		}
		for i := range got.figures {
			if got.figures[i] != want.figures[i] {
				t.Errorf("workers=%d: instrumentation changed %s", workers, fingerprintLabel(i))
			}
		}
	}
	return reg, tracer
}

// TestGoldenTelemetryInvariance is the observability half of the
// determinism contract: installing the stage probe — metrics registry,
// latency histograms and counters on every pipeline-level and
// block-level stage — must not change a single output byte at any
// worker count. It compares the dataset and figure hashes of
// instrumented runs at workers 1, 4, and 16 against an uninstrumented
// baseline.
func TestGoldenTelemetryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	reg, _ := probedSweep(t, 2000, false)

	// Non-vacuity: the probe must actually have observed the runs
	// (otherwise this test would pass vacuously).
	if reg.Snapshot().Counters[telemetry.MetricRespondents] == 0 {
		t.Error("the probe was installed but observed no respondents")
	}
	// Each of the three legs passes every pipeline-level stage of a
	// Study.Run and its grading once, and sample-responses twice (one
	// per cohort).
	lats := reg.Snapshot().Latencies
	for st, want := range map[telemetry.Stage]int64{
		telemetry.StageGenerate: 3, telemetry.StageGenerateMain: 3,
		telemetry.StageGenerateStudents: 3, telemetry.StageDrawProfiles: 3,
		telemetry.StageCalibrate: 3, telemetry.StageSampleResponses: 6,
		telemetry.StageGrade: 3,
	} {
		if got := lats[st.Metric()]; got.Count != want || got.SumNS <= 0 {
			t.Errorf("stage %s: %d observations totalling %dns, want %d and a positive total",
				st.Metric(), got.Count, got.SumNS, want)
		}
	}
}

// TestGoldenTraceInvariance extends the invariance contract to the
// tracing layer: a run with the tracer installed on top of the probe
// must produce byte-identical datasets and figures at any worker count,
// and the tracer must actually have captured stage, worker and shard
// events (so the test cannot pass vacuously).
func TestGoldenTraceInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	_, tracer := probedSweep(t, 2000, true)

	kinds := map[telemetry.EventKind]int{}
	for _, ev := range tracer.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []telemetry.EventKind{telemetry.EvStage, telemetry.EvWorker,
		telemetry.EvShard} {
		if kinds[k] == 0 {
			t.Errorf("tracer captured no %s events", k)
		}
	}
}

// TestGoldenLatencyInvariance is the latency half of the invariance
// contract: with the probe's latency histograms on sampling,
// calibration, grading, and the parallel shards, every output byte must
// match an uninstrumented baseline at workers 1, 4, and 16. The probe
// only reads clocks and adds to atomics; this test is the proof that it
// cannot perturb sampling order, shard boundaries, or grading.
func TestGoldenLatencyInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	reg, _ := probedSweep(t, 2000, false)

	// Non-vacuity: the latency histograms must actually have observed
	// the runs, with sane quantile ordering.
	snap := reg.Snapshot()
	for _, st := range []telemetry.Stage{
		telemetry.StageSampleBlock, telemetry.StageCalibrateQuestion, telemetry.StageGrade,
		telemetry.StageParallelShard, telemetry.StageParallelWorker, telemetry.StageParallelWait,
	} {
		ls, ok := snap.Latencies[st.Metric()]
		if !ok || ls.Count == 0 {
			t.Errorf("%s: no latency observations recorded", st.Metric())
			continue
		}
		if ls.P50NS > ls.P99NS || ls.P99NS > ls.P999NS {
			t.Errorf("%s: quantiles out of order: p50=%.0f p99=%.0f p999=%.0f",
				st.Metric(), ls.P50NS, ls.P99NS, ls.P999NS)
		}
	}
}
