package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/core"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/telemetry"
)

// workload is one benchmark workload: fixtures built once, then passes.
type workload interface {
	// setup builds the fixtures every pass shares.
	setup(tr *tracer) error
	// pass runs one pass and checks its outputs.
	pass(tr *tracer) passResult
	// size is the main-cohort size the passes work on.
	size() int
}

// passResult counts a pass's operations and failed checks, and times
// each report request (the part of a pass a user waits on as one
// fpreport call), in the same order every pass.
type passResult struct {
	ops, failed int
	latencies   []time.Duration
}

func newWorkload(c config, work string) (workload, error) {
	switch c.workload {
	case "reproduce":
		return &reproduce{cfg: c, path: filepath.Join(work, "main.fpds")}, nil
	case "analyses":
		return &analyses{cfg: c, path: filepath.Join(work, "main.fpds")}, nil
	case "query":
		return &queries{cfg: c, path: filepath.Join(work, "shard.fpds")}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want reproduce, analyses or query)", c.workload)
}

// failf reports a failed check on standard error.
func failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// generateMain draws the main cohort into columns, as fpgen does.
func generateMain(tr *tracer, c config, n int) *colstore.Dataset {
	sp := tr.start(spGenMain)
	d := respondent.GenerateMainColumnar(c.seed, n, c.workers, nil, respondent.Instrumentation{}).Cols
	tr.end(sp)
	return d
}

// generateStudents draws the student cohort from the seed split
// Study.Run uses.
func generateStudents(tr *tracer, c config, n int) *colstore.Dataset {
	sp := tr.start(spGenStudents)
	d := respondent.GenerateStudentsColumnar(c.seed+1, n, c.workers, respondent.Instrumentation{})
	tr.end(sp)
	return d
}

// encodeFile writes d to path as an FPDS file and returns the bytes.
func encodeFile(tr *tracer, c config, d *colstore.Dataset, path string) ([]byte, error) {
	sp := tr.start(spEncode)
	var buf bytes.Buffer
	err := d.EncodeBinary(&buf, colstore.IOOptions{Workers: c.workers})
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	tr.endCounts(sp, counts{io: int64(buf.Len())})
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", path, err)
	}
	return buf.Bytes(), nil
}

// loadFile reads an FPDS file back into columns, as fpreport -data does.
func loadFile(tr *tracer, c config, path string) (*colstore.Dataset, error) {
	sp := tr.start(spDecode)
	d, info, err := colstore.LoadFile(quiz.Columns(), path, colstore.IOOptions{Workers: c.workers})
	tr.endCounts(sp, counts{io: info.Bytes})
	return d, err
}

// grade builds graded results over loaded columns.
func grade(tr *tracer, c config, cohort, students *colstore.Dataset) (*core.Results, error) {
	sp := tr.start(spGrade)
	r, err := core.Study{Seed: c.seed, Workers: c.workers}.ResultsFromColumns(cohort, students)
	tr.end(sp)
	return r, err
}

// render prints tables and claims the way fpreport -all does.
func render(tr *tracer, tables []report.Table, claims []core.Claim) []byte {
	sp := tr.start(spRender)
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	if claims != nil {
		b.WriteString("Headline claims (Section IV)\n")
		for _, c := range claims {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %-34s %s\n", status, c.Name, c.Detail)
		}
	}
	tr.end(sp)
	return b.Bytes()
}

// reproduce is the whole paper pipeline at scale: generate both
// cohorts, write the main cohort as FPDS, load it back, grade, and
// render Figures 1-22 and the headline claims.
type reproduce struct {
	cfg  config
	path string
	// Digests of the first pass's FPDS bytes and report.
	fpdsRef, reportRef *[32]byte
}

func (w *reproduce) setup(*tracer) error { return nil }
func (w *reproduce) size() int           { return w.cfg.sizes.reproduceMain }

func (w *reproduce) pass(tr *tracer) passResult {
	c := w.cfg
	res := passResult{ops: 1}
	cohort := generateMain(tr, c, c.sizes.reproduceMain)
	students := generateStudents(tr, c, c.sizes.reproduceStudents)
	fpds, err := encodeFile(tr, c, cohort, w.path)
	if err != nil {
		failf("%v", err)
		res.failed = 1
		return res
	}
	sp := tr.start(spCheck)
	ok := matches(&w.fpdsRef, sha256.Sum256(fpds), "FPDS bytes")
	tr.end(sp)
	cohort, fpds = nil, nil // let the generated copy go before decoding

	// The report request: fpreport -data main.fpds -all.
	t0 := time.Now()
	loaded, err := loadFile(tr, c, w.path)
	if err != nil {
		failf("%v", err)
		res.failed = 1
		return res
	}
	results, err := grade(tr, c, loaded, students)
	if err != nil {
		failf("%v", err)
		res.failed = 1
		return res
	}
	tables := make([]report.Table, 0, 22)
	for i := 1; i <= 22; i++ {
		sp := tr.start(spFigures)
		tables = append(tables, results.Figure(i))
		tr.end(sp)
	}
	sp = tr.start(spClaims)
	claims := results.HeadlineClaims()
	tr.end(sp)
	text := render(tr, tables, claims)
	res.latencies = []time.Duration{time.Since(t0)}

	sp = tr.start(spCheck)
	for _, cl := range claims {
		if !cl.Pass {
			failf("headline claim %s: %s", cl.Name, cl.Detail)
			ok = false
		}
	}
	ok = matches(&w.reportRef, sha256.Sum256(text), "report") && ok
	tr.end(sp)
	if !ok {
		res.failed = 1
	}
	return res
}

// matches compares sum with the digest of the first pass, recording it
// on the first call.
func matches(ref **[32]byte, sum [32]byte, what string) bool {
	if *ref == nil {
		*ref = &sum
		return true
	}
	if **ref != sum {
		failf("%s differ from the first pass", what)
		return false
	}
	return true
}

// analysis is one report that still reads the row view.
type analysis struct {
	span string
	run  func(*core.Results) report.Table
}

// The analyses in the order fpreport's flags list them.
var analysisReports = []analysis{
	{spItems, (*core.Results).ItemAnalysis},
	{spCalibration, (*core.Results).CalibrationReport},
	{spAssociation, (*core.Results).FactorAssociation},
	{spIntervention, (*core.Results).InterventionReport},
	{spConfidence, (*core.Results).ConfidenceReport},
}

// analyses loads a cohort written once in set-up, grades it and runs
// every row-view analysis.
type analyses struct {
	cfg       config
	path      string
	students  *colstore.Dataset
	reportRef *[32]byte
}

func (w *analyses) size() int { return w.cfg.sizes.analysesMain }

func (w *analyses) setup(tr *tracer) error {
	c := w.cfg
	cohort := generateMain(tr, c, c.sizes.analysesMain)
	w.students = generateStudents(tr, c, c.sizes.analysesStudents)
	_, err := encodeFile(tr, c, cohort, w.path)
	return err
}

func (w *analyses) pass(tr *tracer) passResult {
	c := w.cfg
	res := passResult{ops: 1}
	// The report request: fpreport -data main.fpds with every analysis.
	t0 := time.Now()
	loaded, err := loadFile(tr, c, w.path)
	if err != nil {
		failf("%v", err)
		res.failed = 1
		return res
	}
	results, err := grade(tr, c, loaded, w.students)
	if err != nil {
		failf("%v", err)
		res.failed = 1
		return res
	}
	tables := make([]report.Table, 0, len(analysisReports))
	for _, a := range analysisReports {
		sp := tr.start(a.span)
		tables = append(tables, a.run(results))
		tr.end(sp)
	}
	text := render(tr, tables, nil)
	res.latencies = []time.Duration{time.Since(t0)}
	sp := tr.start(spCheck)
	if !matches(&w.reportRef, sha256.Sum256(text), "analysis report") {
		res.failed = 1
	}
	tr.end(sp)
	return res
}

// plannedQuery is one query of the closed loop with its expected result.
type plannedQuery struct {
	expr   string
	stream bool
	want   *query.Result
}

// queries is the ad-hoc slicing path: one client issuing parsed queries
// against a shard, each in memory or streamed off the file.
type queries struct {
	cfg  config
	path string
	mem  *colstore.Dataset
	plan []plannedQuery
}

func (w *queries) size() int { return w.cfg.sizes.queryMain }

func (w *queries) setup(tr *tracer) error {
	c := w.cfg
	cohort := generateMain(tr, c, c.sizes.queryMain)
	if _, err := encodeFile(tr, c, cohort, w.path); err != nil {
		return err
	}
	mem, err := loadFile(tr, c, w.path)
	if err != nil {
		return err
	}
	w.mem = mem
	// Expected results come from memory; a pass that streams a query
	// and matches them shows the two modes agree.
	w.plan = genQueries(c.seed, mem.Schema, c.sizes.queries)
	for i := range w.plan {
		_, want, err := w.run(tr, w.plan[i].expr, false)
		if err != nil {
			return err
		}
		w.plan[i].want = want
	}
	return nil
}

// run parses expr, as fpreport -query does, and runs it in memory or
// streamed; a streamed query opens the shard for itself alone.
func (w *queries) run(tr *tracer, expr string, stream bool) (*query.Parsed, *query.Result, error) {
	c := w.cfg
	schema := quiz.Columns()
	sp := tr.start(spParse)
	p, err := query.Parse(schema, expr, func(name string) (query.Value, error) {
		return quiz.QueryValue(schema, name)
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	var res *query.Result
	if stream {
		read := &telemetry.Counter{}
		sp = tr.start(spOpenShard)
		sr, err := colstore.OpenShard(schema, w.path, colstore.IOOptions{Workers: c.workers, BytesRead: read})
		tr.endCounts(sp, counts{io: read.Value()})
		if err != nil {
			return nil, nil, fmt.Errorf("query %q: %w", expr, err)
		}
		opened := read.Value()
		sp = tr.start(spRunStream)
		res, err = query.Run(query.NewShardSource(sr), p.Query, c.workers)
		if cerr := sr.Close(); err == nil {
			err = cerr
		}
		tr.endCounts(sp, rowCounts(res, sr.Len(), read.Value()-opened))
	} else {
		sp = tr.start(spRunMem)
		res, err = query.Run(query.NewDatasetSource(w.mem), p.Query, c.workers)
		tr.endCounts(sp, rowCounts(res, w.mem.Len(), 0))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("query %q: %w", expr, err)
	}
	return p, res, nil
}

// rowCounts records the rows a query selected and the rows it
// addresses. The engine reports the rows it scans only through
// query.WorkHook, which the roadmap retires, so scanned is the dataset
// length: a constant of the workload, which block skipping would not
// move.
func rowCounts(res *query.Result, n int, streamed int64) counts {
	c := counts{io: streamed, scanned: int64(n)}
	if res != nil {
		c.selected = res.TotalCount()
	}
	return c
}

func (w *queries) pass(tr *tracer) passResult {
	res := passResult{ops: len(w.plan)}
	for _, q := range w.plan {
		t0 := time.Now()
		_, got, err := w.run(tr, q.expr, q.stream)
		res.latencies = append(res.latencies, time.Since(t0))
		sp := tr.start(spCheck)
		switch {
		case err != nil:
			failf("%v", err)
			res.failed++
		case !reflect.DeepEqual(got, q.want):
			failf("query %q: result differs from set-up", q.expr)
			res.failed++
		}
		tr.end(sp)
	}
	return res
}
