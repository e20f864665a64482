package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"

	"fpstudy/internal/core"
	"fpstudy/internal/report"
)

// checkQueries cover every filter kind, grouping and aggregate of the
// query grammar.
var checkQueries = []string{
	"/bg.formal_training/mean:core.score",
	"susp.invalid>=4/bg.contrib_size/count",
	"core.commutativity=true & bg.informal_training~Read about it/opt.level/mean:opt.score",
	"bg.position=Faculty|Postdoc/susp.overflow/mean:susp.denorm",
}

// crossCheck renders the full report at small n twice: from an
// in-process Study.Run, and through the file path a user takes
// (generate → FPDS file → load → grade). The two must be byte-identical,
// and every check query must agree in memory and streamed. It runs in
// every set-up, so it also pays the process-wide one-time costs
// (answer-key derivation, background tables) and calls every layer.
func crossCheck(tr *tracer, c config, work string) error {
	study := core.Study{Seed: c.seed, NMain: c.sizes.checkMain, NStudent: c.sizes.checkStudents, Workers: c.workers}
	sp := tr.start(spStudyRun)
	inProcess := study.Run()
	tr.end(sp)
	want, err := fullReport(tr, inProcess, &queries{cfg: c, mem: inProcess.Main.Cols}, false)
	if err != nil {
		return err
	}

	path := filepath.Join(work, "check.fpds")
	cohort := generateMain(tr, c, c.sizes.checkMain)
	students := generateStudents(tr, c, c.sizes.checkStudents)
	if _, err := encodeFile(tr, c, cohort, path); err != nil {
		return err
	}
	loaded, err := loadFile(tr, c, path)
	if err != nil {
		return err
	}
	results, err := grade(tr, c, loaded, students)
	if err != nil {
		return err
	}
	got, err := fullReport(tr, results, &queries{cfg: c, path: path, mem: loaded}, true)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cross-check: report from the FPDS file differs from Study.Run at n=%d", c.sizes.checkMain)
	}
	return nil
}

// fullReport renders Figures 1-22, the claims, every analysis and the
// check queries. With stream set each query also runs streamed off
// q's shard and must match its in-memory result.
func fullReport(tr *tracer, r *core.Results, q *queries, stream bool) ([]byte, error) {
	var tables []report.Table
	for i := 1; i <= 22; i++ {
		sp := tr.start(spFigures)
		tables = append(tables, r.Figure(i))
		tr.end(sp)
	}
	sp := tr.start(spClaims)
	claims := r.HeadlineClaims()
	tr.end(sp)
	for _, a := range analysisReports {
		sp := tr.start(a.span)
		tables = append(tables, a.run(r))
		tr.end(sp)
	}
	out := render(tr, tables, claims)
	for _, expr := range checkQueries {
		p, res, err := q.run(tr, expr, false)
		if err != nil {
			return nil, fmt.Errorf("cross-check: %w", err)
		}
		if stream {
			_, streamed, err := q.run(tr, expr, true)
			if err != nil {
				return nil, fmt.Errorf("cross-check: %w", err)
			}
			if !reflect.DeepEqual(res, streamed) {
				return nil, fmt.Errorf("cross-check query %q: in-memory and streamed results differ", expr)
			}
		}
		out = append(out, p.Render(res)...)
	}
	return out, nil
}
