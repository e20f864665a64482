// Command fpbench times the end-to-end study pipeline (generation +
// grading) across cohort sizes and worker counts and emits a
// machine-readable JSON report, so performance changes can be tracked
// across commits and machines. Each size also gets an io section:
// dataset serialization through real files (FPDS binary and JSON,
// encode and decode, plus the legacy row decoder as the json-rows
// baseline), reported as MB/s and respondents/sec. Its compare mode
// diffs two reports against noise bands and maintains the
// BENCH_history.jsonl trajectory — the perf-regression gate
// `make bench-gate` runs.
//
// Usage:
//
//	fpbench -o BENCH_pipeline.json
//	fpbench -n 199,10000 -workers 1,2,4 -reps 3
//	fpbench -io=false                    # skip the serialization benchmarks
//	fpbench -telemetry 127.0.0.1:6060    # live /debug/vars + pprof while timing
//	fpbench -trace out.trace.json        # export a Chrome/Perfetto trace of the timed reps
//	fpbench -cpuprofile cpu.pprof -memprofile heap.pprof  # profile the timed reps
//	fpbench compare old.json new.json    # exit 1 if new regressed beyond the noise bands
//
// The default -workers sweep is 1,2,4,0 (0 = GOMAXPROCS), recording the
// full scaling curve per cohort size. compare additionally gates the
// new report's own scaling: workers=0 must be at least as fast as
// workers=1 at every n, within the throughput band. On a GOMAXPROCS=1
// host every worker count clamps to serial; fpbench warns loudly and
// tags the report "serial_host": true.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"fpstudy/internal/benchcmp"
	"fpstudy/internal/colstore"
	"fpstudy/internal/core"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/runlog"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// ledger is this invocation's run-ledger record (nil when -runlog is
// unset); exit routes every termination through it so the appended
// record carries the real exit status.
var ledger *runlog.Run

func exit(code int) {
	ledger.Finish(code)
	os.Exit(code)
}

// memDelta captures the runtime.MemStats movement across one rep.
type memDelta struct {
	allocs     uint64
	allocBytes uint64
	gcPause    uint64
	gcCount    uint32
}

func parseInts(s, flagName string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "fpbench: bad -%s value %q\n", flagName, part)
			exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		exit(compareMain(os.Args[2:]))
	}
	benchMain()
	ledger.Finish(0)
}

// compareMain implements `fpbench compare [flags] old.json new.json`:
// diff two benchmark reports against noise bands, append the new run
// to the benchmark trajectory, exit 1 on regression (2 on usage or
// I/O errors). Flags come before the positional report paths (Go flag
// parsing stops at the first non-flag argument).
func compareMain(args []string) int {
	fs := flag.NewFlagSet("fpbench compare", flag.ExitOnError)
	throughputBand := fs.Float64("throughput-band", 0, "tolerated relative throughput drop (default 0.05 = 5%)")
	allocsBand := fs.Float64("allocs-band", 0, "tolerated relative allocs/respondent growth (default 0.10)")
	gcBand := fs.Float64("gc-band", 0, "tolerated relative GC-pause growth (default 0.50)")
	latencyBand := fs.Float64("latency-band", 0, "tolerated relative per-stage p99 latency growth (default 0.25)")
	history := fs.String("history", "BENCH_history.jsonl", "benchmark trajectory to append the new run to (empty disables)")
	forensics := fs.String("forensics", "forensics", "on gate failure, write a stage-attribution report plus CPU+heap profiles of the worst regressed leg into this directory (empty disables)")
	runlogPath := fs.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpbench compare [flags] old.json new.json")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ledger = runlog.Start(*runlogPath, "fpbench", os.Args[1:], nil, nil)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	old, err := benchcmp.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbench compare:", err)
		return 2
	}
	cur, err := benchcmp.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbench compare:", err)
		return 2
	}

	res := benchcmp.Compare(old, cur, benchcmp.Bands{
		Throughput: *throughputBand,
		Allocs:     *allocsBand,
		GCPause:    *gcBand,
		LatencyP99: *latencyBand,
	})
	for _, d := range res.Deltas {
		mark := "ok"
		if d.Regression {
			mark = "REGRESSION"
		}
		fmt.Fprintf(os.Stderr, "fpbench compare: %-28s %-22s %12.3f -> %12.3f (%+.1f%%) %s\n",
			d.Config(), d.Metric, d.Old, d.New, 100*d.Change, mark)
	}
	for _, c := range res.OnlyOld {
		fmt.Fprintf(os.Stderr, "fpbench compare: %s only in %s (not gated)\n", c, fs.Arg(0))
	}
	for _, c := range res.OnlyNew {
		fmt.Fprintf(os.Stderr, "fpbench compare: %s only in %s (not gated)\n", c, fs.Arg(1))
	}

	if *history != "" {
		if err := benchcmp.AppendHistory(*history, cur, time.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench compare:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "fpbench compare: appended run to %s\n", *history)
	}

	if regs := res.Regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "fpbench compare: %d regression(s) beyond the noise bands\n", len(regs))
		if *forensics != "" {
			captureForensics(*forensics, old, cur, fs.Arg(0), fs.Arg(1), res)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "fpbench compare: no regressions")
	return 0
}

// worstRegressedLeg picks the pipeline (n, workers) configuration with
// the largest relative regression — the leg worth re-running under a
// profiler. IO and query deltas are skipped: they run different code
// paths than the pipeline re-run would profile.
func worstRegressedLeg(regs []benchcmp.Delta) (n, w int, ok bool) {
	worst := 0.0
	for _, d := range regs {
		if d.IsIO() || d.IsQuery() || d.N == 0 {
			continue
		}
		mag := d.Change
		if mag < 0 {
			mag = -mag
		}
		if !ok || mag > worst {
			worst, n, w, ok = mag, d.N, d.Workers, true
		}
	}
	return n, w, ok
}

// captureForensics is the gate-failure autopsy: it writes a markdown
// report attributing the regression to stages (self-time diff of the
// two reports' span trees) into dir, and — when a pipeline leg
// regressed — re-runs that leg once under CPU and heap profiling so
// the culprit stage can be drilled into with `go tool pprof`. Failures
// here only warn: the gate's exit status is already decided.
func captureForensics(dir string, old, cur *benchcmp.Report, oldPath, newPath string, res *benchcmp.Result) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "fpbench compare: forensics:", err)
		return
	}
	profiles := map[string]string{}
	if n, w, ok := worstRegressedLeg(res.Regressions()); ok {
		fmt.Fprintf(os.Stderr, "fpbench compare: forensics: re-running worst leg n=%d workers=%d under profiler\n", n, w)
		cpuPath := filepath.Join(dir, "cpu.pprof")
		heapPath := filepath.Join(dir, "heap.pprof")
		if err := profileLeg(cpuPath, heapPath, cur.Seed, n, w); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench compare: forensics:", err)
		} else {
			profiles["cpu"] = cpuPath
			profiles["heap"] = heapPath
		}
	}
	md := benchcmp.ForensicsMarkdown(old, cur, oldPath, newPath, res, profiles, time.Now())
	mdPath := filepath.Join(dir, "forensics.md")
	if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fpbench compare: forensics:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "fpbench compare: forensics report %s\n", mdPath)
}

// profileLeg re-runs one pipeline configuration under CPU profiling
// and snapshots the heap afterwards — the same instrumented,
// columnar-only study the benchmark timed, primed so the one-time
// answer-key derivation stays out of the profile.
func profileLeg(cpuPath, heapPath string, seed int64, n, w int) error {
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	rec := telemetry.NewRecorder(reg)
	core.Study{Seed: 1, NMain: 8, NStudent: 2, Workers: 1}.Run()

	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	if seed == 0 {
		seed = 42
	}
	core.Study{Seed: seed, NMain: n, NStudent: 52, Workers: w, Telemetry: rec}.Run()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}

	hf, err := os.Create(heapPath)
	if err != nil {
		return err
	}
	runtime.GC() // up-to-date heap statistics
	if err := pprof.WriteHeapProfile(hf); err != nil {
		hf.Close()
		return err
	}
	return hf.Close()
}

func benchMain() {
	ns := flag.String("n", "199,10000", "comma-separated cohort sizes")
	ws := flag.String("workers", "1,2,4,0", "comma-separated worker counts (0 means GOMAXPROCS)")
	reps := flag.Int("reps", 3, "repetitions per configuration (best time is reported)")
	seed := flag.Int64("seed", 42, "study seed")
	out := flag.String("o", "BENCH_pipeline.json", "output file (- for stdout); also writes <out>.manifest.json")
	force := flag.Bool("force", false, "overwrite the output even if it would drop cohort sizes present in the existing report")
	tracePath := flag.String("trace", "", "export a structured trace of the timed reps (.json Chrome trace-event format, .jsonl JSON Lines)")
	telemetryAddr := flag.String("telemetry", "", "serve live expvar+pprof introspection on this address (e.g. 127.0.0.1:6060)")
	ioBench := flag.Bool("io", true, "benchmark dataset serialization (encode/decode, binary and JSON) at each -n size")
	queryBench := flag.Bool("query", true, "benchmark the vectorized query engine (in-memory and streaming) at each -n size")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the timed reps to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the timed reps) to this file")
	runlogPath := flag.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables)")
	flag.Parse()

	sizes := parseInts(*ns, "n")
	var workerCounts []int
	for _, part := range strings.Split(*ws, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "fpbench: bad -workers value %q\n", part)
			exit(2)
		}
		workerCounts = append(workerCounts, v)
	}

	// Truncation guard: overwriting the committed report with a run that
	// drops cohort sizes (the default -n has no n=1M, the committed file
	// does) would silently shrink the benchmark trajectory. Checked
	// before any benchmarking so a refused run costs nothing.
	if *out != "-" && !*force {
		if existing, err := benchcmp.Load(*out); err == nil {
			planned := &benchcmp.Report{}
			for _, n := range sizes {
				planned.Runs = append(planned.Runs, benchcmp.Run{N: n})
			}
			if missing := benchcmp.MissingNSizes(existing, planned); len(missing) > 0 {
				fmt.Fprintf(os.Stderr, "fpbench: refusing to overwrite %s: it has runs at n=%v that this invocation would drop (pass -force to overwrite, or add the sizes to -n)\n",
					*out, missing)
				exit(2)
			}
		}
	}

	// One registry accumulates across every rep (it feeds /debug/vars
	// and the manifest); span recorders are per-rep so each run's stage
	// breakdown is isolated. The benchmark numbers include the
	// instrumented pipeline — that is the configuration users run.
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	procRec := telemetry.NewRecorder(reg)
	procRec.PublishExpvar("fpstudy")
	ledger = runlog.Start(*runlogPath, "fpbench", os.Args[1:], reg, procRec)

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewDefaultTracer()
		telemetry.SetTracer(tracer)
	}
	// The mem sampler feeds the live gauges and, when tracing, marks GC
	// cycles on the trace timeline.
	stopMem := telemetry.StartMemSampler(
		reg.Gauge(telemetry.MetricHeapAlloc), reg.Gauge(telemetry.MetricGCCount), 250*time.Millisecond)
	defer stopMem()

	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Fprintf(os.Stderr, "fpbench: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr())
	}

	rep := benchcmp.Report{
		SchemaVersion: benchcmp.SchemaVersion,
		Tool:          "fpbench",
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Seed:          *seed,
		// VCS is nil for unstamped builds (go run, test binaries);
		// history readers tolerate the omission.
		VCS: runlog.CurrentVCS(),
		Host: benchcmp.Host{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			SerialHost: runtime.GOMAXPROCS(0) == 1,
		},
	}
	if rep.Host.SerialHost {
		fmt.Fprintln(os.Stderr, strings.Repeat("*", 72))
		fmt.Fprintln(os.Stderr, "fpbench: WARNING: GOMAXPROCS=1 — every -workers value clamps to a")
		fmt.Fprintln(os.Stderr, "fpbench: serial run on this host. The scaling curve in this report")
		fmt.Fprintln(os.Stderr, "fpbench: measures the host, not the code; the report is tagged")
		fmt.Fprintln(os.Stderr, `fpbench: "serial_host": true so downstream readers can tell.`)
		fmt.Fprintln(os.Stderr, strings.Repeat("*", 72))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "fpbench: wrote CPU profile %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fpbench:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "fpbench: wrote heap profile %s\n", *memProfile)
		}()
	}

	// Prime the process-wide one-time costs — the oracle answer key and
	// the generator's background tables — before any timing. Without
	// this the first configuration timed absorbs the whole answer-key
	// derivation, which at -reps 1 skews the serial baseline (and with
	// it every speedup_vs_serial and the scaling gate).
	core.Study{Seed: 1, NMain: 8, NStudent: 2, Workers: 1}.Run()

	for _, n := range sizes {
		serial := 0.0
		for _, w := range workerCounts {
			best := 0.0
			var bestSpans []telemetry.SpanSnapshot
			var bestMem memDelta
			// Latency histograms accumulate for the registry's lifetime;
			// bracketing the rep loop with snapshots and subtracting
			// isolates this configuration's observations. Pooled across
			// reps, not best-rep: more reps mean more tail samples.
			latBefore := reg.Snapshot().Latencies
			for r := 0; r < *reps; r++ {
				rec := telemetry.NewRecorder(reg)
				// The benchmark times the columnar pipeline: generation
				// into columns + columnar grading, which Tallies runs on
				// demand inside the timed window.
				study := core.Study{Seed: *seed, NMain: n, NStudent: 52, Workers: w, Telemetry: rec}
				// A forced GC before sampling makes the per-rep memory
				// deltas comparable (no carry-over garbage).
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				tallies, _ := study.Run().Tallies()
				sec := time.Since(start).Seconds()
				runtime.ReadMemStats(&after)
				if len(tallies) != n {
					fmt.Fprintf(os.Stderr, "fpbench: run produced %d tallies, want %d\n", len(tallies), n)
					exit(1)
				}
				if best == 0 || sec < best {
					best = sec
					bestSpans = rec.Spans()
					bestMem = memDelta{
						allocs:     after.Mallocs - before.Mallocs,
						allocBytes: after.TotalAlloc - before.TotalAlloc,
						gcPause:    after.PauseTotalNs - before.PauseTotalNs,
						gcCount:    after.NumGC - before.NumGC,
					}
				}
			}
			if w == 1 {
				serial = best
			}
			var speedup *float64
			if serial > 0 {
				v := serial / best
				speedup = &v
			}
			rep.Runs = append(rep.Runs, benchcmp.Run{
				N: n, Workers: w, Reps: *reps,
				BestSeconds:         best,
				RespondentsPerSec:   float64(n) / best,
				SpeedupVsSerial:     speedup,
				AllocsPerRespondent: float64(bestMem.allocs) / float64(n),
				TotalAllocMB:        float64(bestMem.allocBytes) / (1 << 20),
				GCPauseTotalMS:      float64(bestMem.gcPause) / 1e6,
				GCCount:             bestMem.gcCount,
				Spans:               bestSpans,
				Latency:             latencyStages(latBefore, reg.Snapshot().Latencies),
			})
			fmt.Fprintf(os.Stderr, "fpbench: n=%d workers=%d best=%.3fs (%.0f respondents/sec, %.1f allocs/respondent, %d GCs)\n",
				n, w, best, float64(n)/best, float64(bestMem.allocs)/float64(n), bestMem.gcCount)
		}
		if *ioBench {
			runs, err := ioBenchSize(reg, n, *seed, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpbench:", err)
				exit(1)
			}
			rep.IO = append(rep.IO, runs...)
		}
		if *queryBench {
			runs, err := queryBenchSize(reg, n, *seed, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fpbench:", err)
				exit(1)
			}
			rep.Query = append(rep.Query, runs...)
		}
	}

	// The out-of-core headline leg: a filtered grouped mean streaming
	// off a 10M-respondent on-disk shard. Opt-in (generation plus a
	// multi-GB temp file take minutes), so the default bench stays fast:
	//
	//	FPSTUDY_BENCH_LARGE=1 fpbench -o BENCH_pipeline.json
	if *queryBench && os.Getenv("FPSTUDY_BENCH_LARGE") == "1" {
		const largeN = 10_000_000
		fmt.Fprintf(os.Stderr, "fpbench: FPSTUDY_BENCH_LARGE=1 — streaming query legs at n=%d\n", largeN)
		runs, err := queryBenchLarge(reg, largeN, *seed, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			exit(1)
		}
		rep.Query = append(rep.Query, runs...)
	}

	if tracer != nil {
		stopMem() // final GC sample before export; idempotent with the defer
		if err := telemetry.WriteTraceFile(*tracePath, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "fpbench:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "fpbench: wrote trace %s (%d events, %d dropped)\n",
			*tracePath, tracer.Recorded()-tracer.Dropped(), tracer.Dropped())
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpbench:", err)
		exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "fpbench:", err)
		exit(1)
	}
	m := procRec.Manifest("fpbench", *seed, 0, 0)
	m.Timestamp = rep.Timestamp
	mpath := telemetry.ManifestPath(*out)
	if err := telemetry.WriteManifest(mpath, m); err != nil {
		fmt.Fprintln(os.Stderr, "fpbench:", err)
		exit(1)
	}
	fmt.Fprintf(os.Stderr, "fpbench: wrote %s (manifest %s)\n", *out, mpath)
}

// latencyStages converts the latency-histogram movement between two
// registry snapshots into the report's per-stage quantile rows: stage
// names are the metric names with the "latency." prefix stripped,
// sorted; stages with no observations in the interval are dropped.
func latencyStages(before, after map[string]telemetry.LatencySnapshot) []benchcmp.StageLatency {
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []benchcmp.StageLatency
	for _, name := range names {
		delta := after[name].Sub(before[name])
		if delta.Count == 0 {
			continue
		}
		out = append(out, benchcmp.StageLatencyFromSnapshot(
			strings.TrimPrefix(name, "latency."), delta))
	}
	return out
}

// queryLegs are the canned engine benchmarks: a compute-heavy full
// scan (the derived quiz score reads 16 columns per respondent), a
// selective filtered count, and a grouped mean — the three shapes the
// figures decompose into. Expressions go through query.Parse, so the
// bench exercises the same path as fpreport -query.
var queryLegs = []struct{ name, expr string }{
	{"scan_mean_score", "//mean:core.score"},
	{"filtered_count", "bg.contrib_size=>1,000,000 lines of code//count"},
	{"grouped_mean", "/bg.formal_training/mean:susp.invalid"},
}

// queryBenchOne times every canned leg at workers {1, 0} over one
// source, verifying each result against want (the other mode's run)
// when non-nil, and returns the recorded runs plus the mem-mode
// results for cross-mode verification.
func queryBenchOne(reg *telemetry.Registry, src query.Source, mode string, n int, reps int,
	want map[string]*query.Result) (runs []benchcmp.QueryRun, got map[string]*query.Result, err error) {
	schema := quiz.Columns()
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(schema, name) }
	got = map[string]*query.Result{}
	for _, leg := range queryLegs {
		p, err := query.Parse(schema, leg.expr, resolve)
		if err != nil {
			return nil, nil, fmt.Errorf("query leg %s: %w", leg.name, err)
		}
		for _, w := range []int{1, 0} {
			best := 0.0
			var res *query.Result
			latBefore := reg.Snapshot().Latencies
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, err = query.Run(src, p.Query, w)
				if err != nil {
					return nil, nil, fmt.Errorf("query leg %s: %w", leg.name, err)
				}
				if sec := time.Since(start).Seconds(); best == 0 || sec < best {
					best = sec
				}
			}
			// Determinism spot-check: both modes and every worker count
			// must agree bit-for-bit.
			if prev, ok := got[leg.name]; ok && !queryResultsEqual(prev, res) {
				return nil, nil, fmt.Errorf("query leg %s: results diverge across worker counts", leg.name)
			}
			if want != nil && !queryResultsEqual(want[leg.name], res) {
				return nil, nil, fmt.Errorf("query leg %s: %s results diverge from mem results", leg.name, mode)
			}
			got[leg.name] = res
			runs = append(runs, benchcmp.QueryRun{
				N: n, Mode: mode, Name: leg.name, Workers: w, Reps: reps,
				Selected:          res.TotalCount(),
				BestSeconds:       best,
				RespondentsPerSec: float64(n) / best,
				Latency:           latencyStages(latBefore, reg.Snapshot().Latencies),
			})
			fmt.Fprintf(os.Stderr, "fpbench: n=%d query/%s/%s workers=%d best=%.4fs (%.0f respondents/sec)\n",
				n, mode, leg.name, w, best, float64(n)/best)
		}
	}
	return runs, got, nil
}

// queryResultsEqual compares two engine results bit-for-bit.
func queryResultsEqual(a, b *query.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// queryBenchSize times the canned query legs at one cohort size, in
// memory and streaming off a real .fpds file in a temp directory. The
// streaming results are verified bit-identical to the in-memory ones.
func queryBenchSize(reg *telemetry.Registry, n int, seed int64, reps int) ([]benchcmp.QueryRun, error) {
	cols := respondent.GenerateMainColumnar(seed, n, 0, nil, respondent.Instrumentation{}).Cols
	memRuns, memRes, err := queryBenchOne(reg, query.NewDatasetSource(cols), "mem", n, reps, nil)
	if err != nil {
		return nil, err
	}
	streamRuns, err := queryBenchStream(reg, cols, n, reps, memRes)
	if err != nil {
		return nil, err
	}
	return append(memRuns, streamRuns...), nil
}

// queryBenchLarge is the opt-in out-of-core headline: stream-only legs
// over an on-disk shard at n=10M (the in-memory legs would time the
// same kernels at a size the default -n sweep already covers).
func queryBenchLarge(reg *telemetry.Registry, n int, seed int64, reps int) ([]benchcmp.QueryRun, error) {
	cols := respondent.GenerateMainColumnar(seed, n, 0, nil, respondent.Instrumentation{}).Cols
	return queryBenchStream(reg, cols, n, reps, nil)
}

// queryBenchStream encodes the cohort to a temp .fpds shard and times
// the canned legs through the out-of-core reader.
func queryBenchStream(reg *telemetry.Registry, cols *colstore.Dataset, n, reps int,
	want map[string]*query.Result) ([]benchcmp.QueryRun, error) {
	dir, err := os.MkdirTemp("", "fpbench-query-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cohort"+colstore.BinaryExt)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := cols.EncodeBinary(bw, colstore.IOOptions{}); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	sr, err := colstore.OpenShard(quiz.Columns(), path, colstore.IOOptions{})
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	runs, _, err := queryBenchOne(reg, query.NewShardSource(sr), "stream", n, reps, want)
	return runs, err
}

// ioBenchSize times dataset serialization at one cohort size through
// real files in a temp directory: FPDS binary encode/decode, columnar
// JSON encode (WriteJSON) and streaming decode (DecodeJSON), plus the
// legacy whole-document row decoder (survey.DecodeDataset) as the
// "json-rows" baseline the binary decoder is measured against. The
// cohort is generated once; each op runs reps times and reports its
// best. reg supplies the latency observatory: each op's reps are
// bracketed with registry snapshots so binary entries carry the FPDS
// per-block codec quantiles.
func ioBenchSize(reg *telemetry.Registry, n int, seed int64, reps int) ([]benchcmp.IORun, error) {
	dir, err := os.MkdirTemp("", "fpbench-io-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cols := respondent.GenerateMainColumnar(seed, n, 0, nil, respondent.Instrumentation{}).Cols
	schema := quiz.Columns()
	binPath := filepath.Join(dir, "cohort"+colstore.BinaryExt)
	jsonPath := filepath.Join(dir, "cohort.json")

	var runs []benchcmp.IORun
	bench := func(format, op, path string, fn func() error) error {
		best := 0.0
		latBefore := reg.Snapshot().Latencies
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("io %s/%s at n=%d: %w", format, op, n, err)
			}
			if sec := time.Since(start).Seconds(); best == 0 || sec < best {
				best = sec
			}
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		runs = append(runs, benchcmp.IORun{
			N: n, Format: format, Op: op, Reps: reps,
			Bytes:             st.Size(),
			BestSeconds:       best,
			MBPerSec:          float64(st.Size()) / (1 << 20) / best,
			RespondentsPerSec: float64(n) / best,
			Latency:           latencyStages(latBefore, reg.Snapshot().Latencies),
		})
		fmt.Fprintf(os.Stderr, "fpbench: n=%d io/%s/%s best=%.3fs (%.1f MB/s, %.0f respondents/sec)\n",
			n, format, op, best, float64(st.Size())/(1<<20)/best, float64(n)/best)
		return nil
	}

	steps := []struct {
		format, op, path string
		fn               func() error
	}{
		{"binary", "encode", binPath, func() error {
			f, err := os.Create(binPath)
			if err != nil {
				return err
			}
			if err := cols.EncodeBinary(f, colstore.IOOptions{}); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}},
		{"binary", "decode", binPath, func() error {
			f, err := os.Open(binPath)
			if err != nil {
				return err
			}
			defer f.Close()
			d, err := colstore.DecodeBinary(schema, bufio.NewReaderSize(f, 1<<20), colstore.IOOptions{})
			if err != nil {
				return err
			}
			if d.Len() != n {
				return fmt.Errorf("decoded %d respondents, want %d", d.Len(), n)
			}
			return nil
		}},
		{"json", "encode", jsonPath, func() error {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			bw := bufio.NewWriterSize(f, 1<<20)
			if err := cols.WriteJSON(bw); err != nil {
				f.Close()
				return err
			}
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}},
		{"json", "decode", jsonPath, func() error {
			f, err := os.Open(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			d, err := colstore.DecodeJSON(schema, f)
			if err != nil {
				return err
			}
			if d.Len() != n {
				return fmt.Errorf("decoded %d respondents, want %d", d.Len(), n)
			}
			return nil
		}},
		// The legacy path buffers the whole document and materializes
		// row maps — timing includes the read, because needing the whole
		// file in memory is part of its cost.
		{"json-rows", "decode", jsonPath, func() error {
			data, err := os.ReadFile(jsonPath)
			if err != nil {
				return err
			}
			ds, err := survey.DecodeDataset(data)
			if err != nil {
				return err
			}
			if len(ds.Responses) != n {
				return fmt.Errorf("decoded %d respondents, want %d", len(ds.Responses), n)
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := bench(s.format, s.op, s.path, s.fn); err != nil {
			return nil, err
		}
	}
	return runs, nil
}
