// Command fpgen generates synthetic survey datasets: the calibrated
// main cohort (background + all quizzes) or the student suspicion-quiz
// cohort.
//
// Generation fans out across CPU cores; -workers bounds the
// parallelism. The output is bit-identical for a given seed at any
// worker count. Respondents are sampled directly into columnar storage
// (internal/colstore) and serialized from the columns one response at a
// time, so very large cohorts (-n 1000000) run in bounded memory with
// no per-respondent map allocation.
//
// Large runs are observable: -progress streams generation throughput
// to stderr, -telemetry serves live metrics and profiling
// (/debug/vars, /debug/pprof) over HTTP while the run executes,
// -trace exports a structured event timeline (Chrome trace-event JSON
// for Perfetto/chrome://tracing, or JSONL), and -runlog appends a
// run-ledger record (stage spans, latency quantiles, counters and the
// dataset's sha256). None of these affect the generated bytes.
//
// -format selects the serialization: "json" is the row-oriented survey
// interchange form, "binary" the FPDS columnar shard (the fast path for
// large cohorts — see DESIGN.md "Dataset formats"), and "auto" (the
// default) picks binary when -o ends in .fpds.
//
// Usage:
//
//	fpgen -n 199 -seed 42 -o main.json
//	fpgen -students -n 52 -seed 43 -o students.json
//	fpgen -n 1000000 -workers 8 -progress -telemetry 127.0.0.1:6060 -o big.json
//	fpgen -n 1000000 -o big.fpds
//	fpgen -n 199 -trace run.trace.json -o main.json
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/respondent"
	"fpstudy/internal/runlog"
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

func main() {
	n := flag.Int("n", 199, "number of respondents")
	seed := flag.Int64("seed", 42, "generation seed")
	students := flag.Bool("students", false, "generate the student (suspicion-only) cohort")
	workers := flag.Int("workers", 0, "worker goroutines (<=0 means GOMAXPROCS); never affects the data")
	out := flag.String("o", "", "output file (default stdout)")
	format := flag.String("format", "auto", "output serialization: json (row JSON), binary (FPDS columnar shard), or auto (binary when -o ends in .fpds, else json)")
	telemetryAddr := flag.String("telemetry", "", "serve live expvar+pprof introspection on this address (e.g. 127.0.0.1:6060)")
	tracePath := flag.String("trace", "", "export a structured trace of the run (.json Chrome trace-event format for Perfetto/chrome://tracing, .jsonl JSON Lines)")
	progress := flag.Bool("progress", false, "stream generation throughput (respondents done, respondents/sec, ETA) to stderr")
	runlogPath := flag.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables); never affects the data")
	flag.Parse()

	// Telemetry is always collected (the instrumentation is a handful
	// of atomic counters and spans); the flags only control how it is
	// surfaced. It never changes the generated bytes.
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	rec := telemetry.NewRecorder(reg)
	rec.PublishExpvar("fpstudy")
	ledger = runlog.Start(*runlogPath, "fpgen", os.Args[1:], reg, rec)
	// Resolve the format before generating or opening -o, so a typo
	// neither wastes the run nor truncates an existing file.
	outFormat, err := outputFormat(*format, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpgen:", err)
		exit(1)
	}
	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tracer = telemetry.NewDefaultTracer()
		telemetry.SetTracer(tracer)
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
		// Graceful shutdown: release the port at exit but let an
		// in-flight scrape or profile finish (bounded).
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Fprintf(os.Stderr, "fpgen: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr())
	}

	// Generation advances the progress counter once per respondent.
	prog := reg.Counter(telemetry.MetricRespondents)
	stopProgress := func() {}
	if *progress {
		stopProgress = startProgress(prog, int64(*n))
	}

	// Memory gauges surface GC behaviour live on /debug/vars during
	// long runs; sampling never changes the generated bytes.
	stopMem := telemetry.StartMemSampler(
		reg.Gauge(telemetry.MetricHeapAlloc), reg.Gauge(telemetry.MetricGCCount), 250*time.Millisecond)
	defer stopMem()

	span := rec.StartSpan("generate")
	var cols *colstore.Dataset
	if *students {
		cols = respondent.GenerateStudentsColumnar(*seed, *n, *workers,
			respondent.Instrumentation{Span: span, Progress: prog})
	} else {
		cols = respondent.GenerateMainColumnar(*seed, *n, *workers, nil,
			respondent.Instrumentation{Span: span, Progress: prog}).Cols
	}
	span.AddItems(int64(*n))
	span.End()
	stopProgress()
	reg.Gauge(telemetry.MetricInternedStrings).Set(float64(cols.InternedStrings()))

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
		defer f.Close()
		w = f
	}
	wsp := rec.StartSpan("write")
	written := reg.Counter(telemetry.MetricIOBytesWritten)
	// The dataset streams through a sha256 so the ledger record can
	// carry a golden hash of the exact bytes emitted.
	hw := &hashingWriter{w: w, h: sha256.New()}
	if outFormat == colstore.FormatBinary {
		// EncodeBinary buffers and counts internally.
		if err := cols.EncodeBinary(hw, colstore.IOOptions{Workers: *workers, BytesWritten: written}); err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
	} else {
		bw := bufio.NewWriterSize(&countingWriter{w: hw, c: written}, 1<<20)
		if err := cols.WriteJSON(bw); err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
		if *out == "" {
			bw.WriteString("\n")
		}
		if err := bw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
	}
	wsp.AddItems(int64(cols.Len()))
	wsp.End()
	ledger.SetGolden("dataset_sha256", hex.EncodeToString(hw.h.Sum(nil)))

	if tracer != nil {
		stopMem() // final GC sample before export; idempotent with the defer
		if err := telemetry.WriteTraceFile(*tracePath, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "fpgen:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "fpgen: wrote trace %s (%d events, %d dropped)\n",
			*tracePath, tracer.Recorded()-tracer.Dropped(), tracer.Dropped())
	}

	if *out != "" {
		fmt.Fprintf(os.Stderr, "fpgen: wrote %d responses to %s\n", cols.Len(), *out)
	}
	ledger.Finish(0)
}

// outputFormat resolves -format against the -o path: "auto" picks the
// FPDS binary shard for a .fpds path and row JSON otherwise.
func outputFormat(format, out string) (colstore.Format, error) {
	switch format {
	case "json":
		return colstore.FormatJSON, nil
	case "binary":
		return colstore.FormatBinary, nil
	case "auto":
		if strings.HasSuffix(out, colstore.BinaryExt) {
			return colstore.FormatBinary, nil
		}
		return colstore.FormatJSON, nil
	}
	return 0, fmt.Errorf("unknown -format %q (want json, binary, or auto)", format)
}

// hashingWriter tees every written byte into a hash (the ledger's
// golden dataset digest) on its way to the destination.
type hashingWriter struct {
	w io.Writer
	h hash.Hash
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	return n, err
}

// countingWriter feeds the io.bytes_written counter as the dataset
// streams out (EncodeBinary counts internally; this covers JSON).
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// startProgress launches the stderr throughput reporter and returns a
// func that stops it and prints the final line. done counts respondents
// generated (see respondent.Instrumentation.Progress).
func startProgress(prog interface{ Value() int64 }, n int64) func() {
	start := time.Now()
	stop := make(chan struct{})
	finished := make(chan struct{})
	line := func() string {
		done := prog.Value()
		rate := float64(done) / time.Since(start).Seconds()
		eta := "?"
		if rate > 0 {
			eta = fmt.Sprintf("%.0fs", float64(n-done)/rate)
		}
		return fmt.Sprintf("fpgen: generated %d/%d respondents (%.0f respondents/sec, ETA %s)",
			done, n, rate, eta)
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "%s\n", line())
			}
		}
	}()
	return func() {
		close(stop)
		<-finished
		elapsed := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "fpgen: generated %d respondents in %.2fs (%.0f respondents/sec)\n",
			n, elapsed, float64(n)/elapsed)
	}
}
