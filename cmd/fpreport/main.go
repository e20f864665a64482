// Command fpreport regenerates the paper's figures and headline claims
// from a reproduction study run.
//
// Usage:
//
//	fpreport -all                # print every figure (1-22) and the claims
//	fpreport -fig 14             # one figure
//	fpreport -claims             # headline claims only
//	fpreport -csv -fig 22        # figure as CSV
//	fpreport -n 1000 -seed 7     # larger cohort / different seed
//	fpreport -data big.fpds -all # report off a serialized dataset
//
// Ad-hoc slicing runs a query expression through the vectorized
// engine instead of a canned figure:
//
//	fpreport -query '/bg.formal_training/mean:core.score'
//	fpreport -data big.fpds -query 'susp.invalid>=4/bg.contrib_size/count'
//
// With -data on an .fpds shard the query streams block-at-a-time off
// disk (memory bounded by block size x workers, not n); row JSON and
// generated cohorts run in memory. See internal/query for the
// filter/groupby/agg grammar.
//
// Each invocation prints one report: -all, -fig, -claims,
// -calibration, -association, -items, -intervention, -confidence and
// -query exclude one another, and giving two is a usage error (exit
// 2). With none, fpreport prints Figures 12 and 13 and the claims.
// -csv or -markdown renders every table of the report in that format;
// giving both is a usage error too.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/core"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
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
	all := flag.Bool("all", false, "print all figures and claims")
	fig := flag.Int("fig", 0, "print one figure by number (1-22)")
	claims := flag.Bool("claims", false, "print headline claims")
	calibration := flag.Bool("calibration", false, "print the chi-square calibration report")
	association := flag.Bool("association", false, "print factor-association effect sizes")
	items := flag.Bool("items", false, "print the item analysis of the core quiz")
	intervention := flag.Bool("intervention", false, "print the training-intervention policy experiment")
	confidence := flag.Bool("confidence", false, "print the confidence-vs-accuracy analysis")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	markdown := flag.Bool("markdown", false, "emit Markdown instead of an aligned table")
	n := flag.Int("n", paperdata.NMain, "main cohort size")
	nStudents := flag.Int("nstudents", paperdata.NStudent, "student cohort size")
	seed := flag.Int64("seed", 42, "study seed")
	queryExpr := flag.String("query", "", "run a filter/groupby/agg query expression instead of a figure (streams .fpds -data shards out of core)")
	data := flag.String("data", "", "run the report off a main-cohort dataset file (row JSON or .fpds binary) instead of regenerating")
	studentData := flag.String("studentdata", "", "student-cohort dataset file (with -data; default regenerates students from -seed/-nstudents)")
	workers := flag.Int("workers", 0, "worker goroutines (<=0 means GOMAXPROCS); never affects the data")
	telemetryAddr := flag.String("telemetry", "", "serve live Prometheus /metrics and pprof on this address (e.g. 127.0.0.1:6060)")
	runlogPath := flag.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables); never affects the output")
	flag.Parse()

	// Telemetry observes the pipeline without participating: figures
	// and claims are bit-identical with or without it.
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	ledger = runlog.Start(*runlogPath, "fpreport", os.Args[1:], reg)
	// Reject conflicting report flags, a bad figure number or cohort
	// size before the pipeline runs. A size of 0 is valid: it renders
	// the no-respondents note.
	if chosen := chosenReports(); len(chosen) > 1 {
		fmt.Fprintf(os.Stderr, "fpreport: %s: give at most one report flag\n", strings.Join(chosen, ", "))
		exit(2)
	}
	if *csv && *markdown {
		fmt.Fprintln(os.Stderr, "fpreport: -csv, -markdown: give at most one format flag")
		exit(2)
	}
	if *fig < 0 || *fig > 22 {
		fmt.Fprintln(os.Stderr, "fpreport: figure number must be 1-22")
		exit(2)
	}
	if *n < 0 {
		fmt.Fprintln(os.Stderr, "fpreport: -n must be >= 0")
		exit(2)
	}
	if *nStudents < 0 {
		fmt.Fprintln(os.Stderr, "fpreport: -nstudents must be >= 0")
		exit(2)
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Fprintf(os.Stderr, "fpreport: telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	// Every figure, claim, analysis and query reads the columns
	// directly, so a reporting invocation never builds per-respondent
	// maps.
	study := core.Study{Seed: *seed, NMain: *n, NStudent: *nStudents, Workers: *workers}

	if *queryExpr != "" {
		if err := runQuery(study, *data, *queryExpr); err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
		ledger.Finish(0)
		return
	}
	var results *core.Results
	if *data != "" {
		// Loaded-data mode: grade and report on a serialized cohort. At
		// the generating seed and size this reproduces an in-process run
		// bit-for-bit (the golden test pins it).
		var err error
		results, err = resultsFromFiles(study, reg, *data, *studentData)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
	} else {
		if *studentData != "" {
			fmt.Fprintln(os.Stderr, "fpreport: -studentdata requires -data")
			exit(2)
		}
		results = study.Run()
	}

	// render prints every table of the report in the chosen format.
	render := func(t report.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *markdown:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.String())
		}
	}
	emit := func(num int) { render(results.Figure(num)) }

	// The report stage times everything printed from here on, so the
	// ledger names where a reporting run's time went.
	t0 := telemetry.Start()
	claimsHold := true
	switch {
	case *calibration:
		render(results.CalibrationReport())
	case *association:
		render(results.FactorAssociation())
	case *items:
		render(results.ItemAnalysis())
	case *intervention:
		render(results.InterventionReport())
	case *confidence:
		render(results.ConfidenceReport())
		fmt.Printf("overconfidence index: %+.3f; optimization humility: %.2f\n",
			results.OverconfidenceIndex(), results.OptHumilityIndex())
	case *fig != 0:
		emit(*fig)
	case *all:
		for i := 1; i <= 22; i++ {
			emit(i)
		}
		claimsHold = printClaims(results)
	case *claims:
		claimsHold = printClaims(results)
	default:
		// Default: the paper's headline table and histogram.
		emit(12)
		emit(13)
		claimsHold = printClaims(results)
	}
	telemetry.Done(telemetry.StageReport, 0, t0, 0, 0)
	if !claimsHold {
		exit(1)
	}
	ledger.Finish(0)
}

// reportFlags are the flags that each pick the whole report.
var reportFlags = []string{"all", "fig", "claims", "calibration", "association",
	"items", "intervention", "confidence", "query"}

// chosenReports returns the report flags given on the command line
// with a value that picks a report (a true bool, a nonzero -fig, a
// nonempty -query), as "-name", in reportFlags order.
func chosenReports() []string {
	var chosen []string
	for _, name := range reportFlags {
		switch v := flag.Lookup(name).Value.String(); v {
		case "", "0", "false":
		default:
			chosen = append(chosen, "-"+name)
		}
	}
	return chosen
}

// runQuery executes one ad-hoc expression through the vectorized
// engine: streaming off an .fpds -data shard (out-of-core), in memory
// off a row-JSON file, or over a freshly generated main cohort.
func runQuery(study core.Study, dataPath, expr string) error {
	schema := quiz.Columns()
	// The parse resolves score names through quiz.QueryValue, which
	// builds the answer key's per-code outcome tables, so it is timed
	// under report with the run and the rendering.
	tp := telemetry.Start()
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(schema, name) }
	p, err := query.Parse(schema, expr, resolve)
	if err != nil {
		return err
	}
	telemetry.Done(telemetry.StageReport, 0, tp, 0, 0)

	var src query.Source
	switch {
	case dataPath == "":
		src = study.Run().MainSource()
	default:
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		head := make([]byte, 8)
		k, _ := f.ReadAt(head, 0)
		if colstore.DetectFormat(head[:k]) == colstore.FormatBinary {
			// Out-of-core: stream blocks of the bound columns only.
			f.Close()
			t0 := telemetry.Start()
			sr, err := colstore.OpenShard(schema, dataPath, colstore.IOOptions{Workers: study.Workers})
			if err != nil {
				return err
			}
			defer sr.Close()
			telemetry.Done(telemetry.StageLoadData, 0, t0, int64(sr.Len()), 0)
			fmt.Fprintf(os.Stderr, "fpreport: streaming %s: fpds, %d responses\n", dataPath, sr.Len())
			src = query.NewShardSource(sr)
		} else {
			f.Close()
			t0 := telemetry.Start()
			cols, info, err := colstore.LoadFile(schema, dataPath, colstore.IOOptions{Workers: study.Workers})
			if err != nil {
				return err
			}
			telemetry.Done(telemetry.StageLoadData, 0, t0, int64(cols.Len()), 0)
			fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
				dataPath, info.Format, cols.Len(), float64(info.Bytes)/(1<<20), info.Elapsed.Seconds())
			src = query.NewDatasetSource(cols)
		}
	}

	start := time.Now()
	t0 := telemetry.Start()
	res, err := query.Run(src, p.Query, study.Workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Print(p.Render(res))
	telemetry.Done(telemetry.StageReport, 0, t0, 0, 0)
	fmt.Fprintf(os.Stderr, "fpreport: scanned %d respondents, selected %d, %.3fs (%.1fM respondents/s)\n",
		src.Len(), res.TotalCount(), elapsed.Seconds(),
		float64(src.Len())/elapsed.Seconds()/1e6)
	return nil
}

// resultsFromFiles loads the main (and optionally student) cohort
// through the format-sniffing columnar loader and builds graded results
// off the columns.
func resultsFromFiles(study core.Study, reg *telemetry.Registry, dataPath, studentPath string) (*core.Results, error) {
	opt := colstore.IOOptions{Workers: study.Workers, BytesRead: reg.Counter(telemetry.MetricIOBytesRead)}
	t0 := telemetry.Start()
	main, info, err := colstore.LoadFile(quiz.Columns(), dataPath, opt)
	if err != nil {
		return nil, err
	}
	telemetry.Done(telemetry.StageLoadData, 0, t0, int64(main.Len()), 0)
	fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
		dataPath, info.Format, main.Len(), float64(info.Bytes)/(1<<20), info.Elapsed.Seconds())
	var students *colstore.Dataset
	if studentPath != "" {
		ts := telemetry.Start()
		var sinfo colstore.LoadInfo
		students, sinfo, err = colstore.LoadFile(quiz.Columns(), studentPath, opt)
		if err != nil {
			return nil, err
		}
		telemetry.Done(telemetry.StageLoadStudentData, 0, ts, int64(students.Len()), 0)
		fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
			studentPath, sinfo.Format, students.Len(), float64(sinfo.Bytes)/(1<<20), sinfo.Elapsed.Seconds())
	}
	return study.ResultsFromColumns(main, students)
}

// printClaims prints the headline claims and reports whether every
// claim holds.
func printClaims(results *core.Results) bool {
	fmt.Println("Headline claims (Section IV)")
	fmt.Println("============================")
	ok := true
	for _, c := range results.HeadlineClaims() {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("  [%s] %-34s %s\n", status, c.Name, c.Detail)
	}
	return ok
}
