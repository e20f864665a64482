// Command fpsurvey manages the survey instrument and response
// datasets: print the instrument as JSON, validate a dataset against
// it, tally a question, or anonymize a dataset in place.
//
// Datasets load through the streaming columnar ingest layer
// (internal/colstore): the format is sniffed from the leading bytes, so
// every operation accepts both row JSON and FPDS binary shards, and
// JSON parses token-at-a-time straight into columns instead of a
// whole-file unmarshal. Each load prints a one-line ingest summary
// (format, respondents, MB, seconds) to stderr.
//
// Usage:
//
//	fpsurvey -instrument                 # dump the instrument JSON
//	fpsurvey -validate data.json         # check a dataset
//	fpsurvey -tally bg.area data.fpds    # tabulate one question
//	fpsurvey -anonymize data.json        # rewrite with opaque tokens
//
// The slice subcommand runs an ad-hoc filter/groupby/agg expression
// through the vectorized query engine (internal/query documents the
// grammar). Binary .fpds shards stream block-at-a-time off disk in
// bounded memory; row JSON loads into columns first:
//
//	fpsurvey slice 'susp.invalid>=4/bg.contrib_size/count' data.fpds
package main

import (
	"flag"
	"fmt"
	"os"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/runlog"
	"fpstudy/internal/survey"
)

var workers = flag.Int("workers", 0, "worker goroutines for codec/view fan-out (<=0 means GOMAXPROCS)")

// ledger is this invocation's run-ledger record (nil when -runlog is
// unset); exit routes every termination through it so the appended
// record carries the real exit status.
var ledger *runlog.Run

func exit(code int) {
	ledger.Finish(code)
	os.Exit(code)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "slice" {
		slice(os.Args[2:])
		ledger.Finish(0)
		return
	}
	instrument := flag.Bool("instrument", false, "print the survey instrument JSON")
	text := flag.Bool("text", false, "print the participant-facing survey text")
	validate := flag.String("validate", "", "validate a dataset file")
	tally := flag.String("tally", "", "question ID to tabulate (requires a dataset argument)")
	anonymize := flag.String("anonymize", "", "anonymize a dataset file in place")
	csv := flag.String("csv", "", "flatten a dataset file to CSV on stdout")
	runlogPath := flag.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables)")
	flag.Parse()
	ledger = runlog.Start(*runlogPath, "fpsurvey", os.Args[1:], nil)

	ins := quiz.Instrument()

	switch {
	case *text:
		fmt.Print(ins.RenderText())

	case *instrument:
		data, err := survey.EncodeInstrument(ins)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		fmt.Println()

	case *validate != "":
		cols, _ := load(*validate)
		if err := ins.ValidateDataset(rows(cols)); err != nil {
			fatal(err)
		}
		fmt.Printf("fpsurvey: %s: %d responses, all valid\n", *validate, cols.Len())

	case *tally != "":
		if flag.NArg() < 1 {
			fatal(fmt.Errorf("usage: fpsurvey -tally <questionID> <dataset>"))
		}
		cols, _ := load(flag.Arg(0))
		t, err := ins.Tally(rows(cols), *tally)
		if err != nil {
			fatal(err)
		}
		total := cols.Len()
		for _, k := range survey.SortedKeys(t) {
			fmt.Printf("%-60s %4d  %5.1f%%\n", k, t[k], 100*float64(t[k])/float64(total))
		}

	case *csv != "":
		cols, _ := load(*csv)
		fmt.Print(ins.FlattenCSV(rows(cols)))

	case *anonymize != "":
		cols, info := load(*anonymize)
		cols.Anonymize()
		f, err := os.Create(*anonymize)
		if err != nil {
			fatal(err)
		}
		// Rewrite in the format the file arrived in.
		if info.Format == colstore.FormatBinary {
			err = cols.EncodeBinary(f, colstore.IOOptions{Workers: *workers})
		} else {
			err = cols.WriteJSON(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fpsurvey: anonymized %d responses in %s\n", cols.Len(), *anonymize)

	default:
		flag.Usage()
		exit(2)
	}
	ledger.Finish(0)
}

// slice runs one query expression over a dataset file. Binary shards
// stream out of core; JSON loads in memory.
func slice(args []string) {
	fs := flag.NewFlagSet("fpsurvey slice", flag.ExitOnError)
	sliceWorkers := fs.Int("workers", 0, "worker goroutines (<=0 means GOMAXPROCS); never affects the result")
	runlogPath := fs.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpsurvey slice [-workers N] '<filter>/<groupby>/<agg>' <dataset>")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	ledger = runlog.Start(*runlogPath, "fpsurvey", os.Args[1:], nil)
	if fs.NArg() != 2 {
		fs.Usage()
		exit(2)
	}
	expr, path := fs.Arg(0), fs.Arg(1)

	schema := quiz.Columns()
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(schema, name) }
	p, err := query.Parse(schema, expr, resolve)
	if err != nil {
		fatal(err)
	}

	var src query.Source
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	head := make([]byte, 8)
	k, _ := f.ReadAt(head, 0)
	f.Close()
	if colstore.DetectFormat(head[:k]) == colstore.FormatBinary {
		sr, err := colstore.OpenShard(schema, path, colstore.IOOptions{Workers: *sliceWorkers})
		if err != nil {
			fatal(err)
		}
		defer sr.Close()
		fmt.Fprintf(os.Stderr, "fpsurvey: streaming %s: fpds, %d responses\n", path, sr.Len())
		src = query.NewShardSource(sr)
	} else {
		*workers = *sliceWorkers
		cols, _ := load(path)
		src = query.NewDatasetSource(cols)
	}

	res, err := query.Run(src, p.Query, *sliceWorkers)
	if err != nil {
		fatal(err)
	}
	fmt.Print(p.Render(res))
}

// load streams a dataset file into columns, sniffing the format, and
// prints the ingest summary to stderr.
func load(path string) (*colstore.Dataset, colstore.LoadInfo) {
	cols, info, err := colstore.LoadFile(quiz.Columns(), path, colstore.IOOptions{Workers: *workers})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fpsurvey: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
		path, info.Format, cols.Len(), float64(info.Bytes)/(1<<20), info.Elapsed.Seconds())
	return cols, info
}

// rows materializes the row view for the operations that consume
// survey.Dataset (validation, tallies, CSV export).
func rows(cols *colstore.Dataset) *survey.Dataset {
	return cols.ToSurveyWorkers(*workers)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpsurvey:", err)
	exit(1)
}
