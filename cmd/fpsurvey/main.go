// Command fpsurvey manages the survey instrument and response
// datasets: print the instrument as JSON, validate a dataset against
// it, tally a question, flatten a dataset to CSV, or anonymize a
// dataset in place.
//
// Datasets load into columns (internal/colstore), and every operation
// is a scan over those columns: the format is sniffed from the leading
// bytes, so every operation accepts both row-shaped JSON and FPDS
// binary shards, and JSON parses token-at-a-time straight into columns
// instead of a whole-file unmarshal. Each load prints a one-line ingest
// summary (format, respondents, MB, seconds) to stderr.
//
// Usage:
//
//	fpsurvey -instrument                 # dump the instrument JSON
//	fpsurvey -validate data.json         # check a dataset
//	fpsurvey -tally bg.area data.fpds    # tabulate one question
//	fpsurvey -csv data.fpds              # flatten to CSV on stdout
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
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/runlog"
	"fpstudy/internal/survey"
)

var workers = flag.Int("workers", 0, "worker goroutines for the FPDS codec (<=0 means GOMAXPROCS)")

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
		if err := validateColumns(cols); err != nil {
			fatal(err)
		}
		fmt.Printf("fpsurvey: %s: %d responses, all valid\n", *validate, cols.Len())

	case *tally != "":
		if flag.NArg() < 1 {
			fatal(fmt.Errorf("usage: fpsurvey -tally <questionID> <dataset>"))
		}
		ci, ok := quiz.Columns().ColumnIndex(*tally)
		if !ok {
			fatal(fmt.Errorf("survey: unknown question %q", *tally))
		}
		cols, _ := load(flag.Arg(0))
		t := tallyColumn(cols, ci)
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		total := cols.Len()
		for _, k := range keys {
			fmt.Printf("%-60s %4d  %5.1f%%\n", k, t[k], 100*float64(t[k])/float64(total))
		}

	case *csv != "":
		cols, _ := load(*csv)
		w := bufio.NewWriterSize(os.Stdout, 1<<16)
		writeCSV(w, cols)
		if err := w.Flush(); err != nil {
			fatal(err)
		}

	case *anonymize != "":
		cols, info := load(*anonymize)
		cols.Anonymize()
		if err := replaceFile(*anonymize, func(f *os.File) error {
			// Rewrite in the format the file arrived in.
			if info.Format == colstore.FormatBinary {
				return cols.EncodeBinary(f, colstore.IOOptions{Workers: *workers})
			}
			return cols.WriteJSON(f)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("fpsurvey: anonymized %d responses in %s\n", cols.Len(), *anonymize)

	default:
		flag.Usage()
		exit(2)
	}
	ledger.Finish(0)
}

// replaceFile replaces path with what write writes: into a temporary
// file in the same directory, closed and then renamed over path, so a
// failed write leaves path as it was. The new file keeps path's mode.
func replaceFile(path string, write func(*os.File) error) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(f.Name(), st.Mode().Perm())
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) //nolint:errcheck // the write's error is the one to report
	}
	return err
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

// forEachLabel calls fn with each label of respondent i's answer to
// column ci, in stored order: "true", "false" or "dontknow"; a Likert
// level in decimal; a single choice's option or free text; each choice
// of a multi-choice answer. An unanswered cell has no labels.
func forEachLabel(d *colstore.Dataset, ci, i int, fn func(label string)) {
	switch d.Schema.Column(ci).Kind {
	case survey.TrueFalse:
		switch d.TF(ci, i) {
		case colstore.TFTrue:
			fn(survey.AnswerTrue)
		case colstore.TFFalse:
			fn(survey.AnswerFalse)
		case colstore.TFDontKnow:
			fn(survey.AnswerDontKnow)
		}
	case survey.Likert:
		if lv := d.LikertLevel(ci, i); lv != 0 {
			fn(strconv.Itoa(lv))
		}
	case survey.SingleChoice:
		if l := d.SingleLabel(ci, i); l != "" {
			fn(l)
		}
	case survey.MultiChoice:
		d.ForEachMultiChoice(ci, i, fn)
	}
}

// validateColumns checks every single- and multi-choice answer of a
// column that does not allow free text against the column's options,
// and reports the first label that is not offered: in respondent
// order, then in instrument order. The decoders have already rejected
// unknown questions, bad true/false answers and out-of-range codes.
func validateColumns(d *colstore.Dataset) error {
	var checked []int
	for ci := 0; ci < d.Schema.NumColumns(); ci++ {
		c := d.Schema.Column(ci)
		if (c.Kind == survey.SingleChoice || c.Kind == survey.MultiChoice) && !c.AllowOther {
			checked = append(checked, ci)
		}
	}
	for i := 0; i < d.Len(); i++ {
		for _, ci := range checked {
			c := d.Schema.Column(ci)
			bad := ""
			forEachLabel(d, ci, i, func(label string) {
				if _, ok := c.OptionCode(label); !ok && bad == "" {
					bad = label
				}
			})
			if bad != "" {
				return fmt.Errorf("response %d (%s): survey: question %q: option %q not offered",
					i, d.Token(i), c.ID, bad)
			}
		}
	}
	return nil
}

// tallyColumn counts column ci's answers by label: "unanswered" for an
// empty cell, one count per selected option of a multi-choice answer,
// and free text under its own text.
func tallyColumn(d *colstore.Dataset, ci int) map[string]int {
	t := map[string]int{}
	for i := 0; i < d.Len(); i++ {
		answered := false
		forEachLabel(d, ci, i, func(label string) {
			t[label]++
			answered = true
		})
		if !answered {
			t["unanswered"]++
		}
	}
	return t
}

// writeCSV writes the dataset as a flat CSV matrix: a header of
// "token" and the question IDs in instrument order, then one row per
// respondent, with multi-choice answers joined by ';', Likert answers
// as numbers and unanswered cells empty. This is the export format for
// analysis outside this repository.
func writeCSV(w *bufio.Writer, d *colstore.Dataset) {
	var cell []byte
	w.WriteString("token")
	for ci := 0; ci < d.Schema.NumColumns(); ci++ {
		w.WriteByte(',')
		writeField(w, append(cell[:0], d.Schema.Column(ci).ID...))
	}
	w.WriteByte('\n')
	for i := 0; i < d.Len(); i++ {
		writeField(w, append(cell[:0], d.Token(i)...))
		for ci := 0; ci < d.Schema.NumColumns(); ci++ {
			cell = cell[:0]
			first := true
			forEachLabel(d, ci, i, func(label string) {
				if !first {
					cell = append(cell, ';')
				}
				first = false
				cell = append(cell, label...)
			})
			w.WriteByte(',')
			writeField(w, cell)
		}
		w.WriteByte('\n')
	}
}

// writeField writes one CSV field, quoted (with inner quotes doubled)
// when it holds a comma, a quote or a newline.
func writeField(w *bufio.Writer, f []byte) {
	if !bytes.ContainsAny(f, ",\"\n") {
		w.Write(f)
		return
	}
	w.WriteByte('"')
	for _, b := range f {
		if b == '"' {
			w.WriteByte('"')
		}
		w.WriteByte(b)
	}
	w.WriteByte('"')
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpsurvey:", err)
	exit(1)
}
