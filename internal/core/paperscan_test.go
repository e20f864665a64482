package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
)

// failingSource is a cohort whose block reads fail, as a truncated or
// corrupt shard would.
type failingSource struct {
	query.Source
}

var errBlockRead = errors.New("test: block read failed")

func (s failingSource) NewReader([]int) (query.BlockReader, error) { return failingReader{}, nil }

type failingReader struct{}

func (failingReader) Block(int) (*query.Block, error) { return nil, errBlockRead }

// TestPaperPlanEngineErrors pins how a failed scan surfaces: every
// figure that reads the main cohort carries the error as a note, and
// the headline claims collapse to one failing engine-error claim,
// rather than rendering and judging zeros.
func TestPaperPlanEngineErrors(t *testing.T) {
	r := Study{Seed: 42, NMain: 199, NStudent: 52}.Run()
	r.mainSrc = failingSource{query.NewDatasetSource(r.Main.Cols)}

	for fig := 1; fig <= 22; fig++ {
		tab := r.Figure(fig)
		if len(tab.Rows) != 0 || !strings.Contains(strings.Join(tab.Notes, "\n"), errBlockRead.Error()) {
			t.Errorf("figure %d: rows=%d notes=%q, want no rows and the scan error as a note",
				fig, len(tab.Rows), tab.Notes)
		}
	}
	claims := r.HeadlineClaims()
	if len(claims) != 1 || claims[0].Name != "engine-error" || claims[0].Pass ||
		!strings.Contains(claims[0].Detail, errBlockRead.Error()) {
		t.Errorf("claims = %+v, want one failing engine-error claim", claims)
	}
	if h := r.CoreScoreHistogram(); h.Total != 0 {
		t.Errorf("histogram total %d from a failed scan", h.Total)
	}

	// A failing student cohort fails Figure 22 and the claims.
	r = Study{Seed: 42, NMain: 199, NStudent: 52}.Run()
	r.studentSrc = failingSource{query.NewDatasetSource(r.StudentCols)}
	if tab := r.Figure(22); len(tab.Rows) != 0 || len(tab.Notes) != 1 {
		t.Errorf("figure 22 with failing students: rows=%d notes=%q", len(tab.Rows), tab.Notes)
	}
	if claims := r.HeadlineClaims(); len(claims) != 1 || claims[0].Name != "engine-error" {
		t.Errorf("claims with failing students = %+v", claims)
	}
}

// TestPaperPlanEmptyCohorts pins how an empty cohort renders, both
// after an n=0 Study.Run and from a 0-row FPDS file: every figure that
// reads it has no rows and the no-respondents note, and the headline
// claims collapse to one failing no-respondents claim rather than
// judging zeros. An empty student cohort alone empties Figure 22 and
// collapses the claims too.
func TestPaperPlanEmptyCohorts(t *testing.T) {
	check := func(name string, r *Results, figs []int) {
		t.Helper()
		for _, fig := range figs {
			tab := r.Figure(fig)
			if len(tab.Rows) != 0 || len(tab.Notes) != 1 || tab.Notes[0] != noRespondents {
				t.Errorf("%s figure %d: rows=%d notes=%q, want no rows and %q",
					name, fig, len(tab.Rows), tab.Notes, noRespondents)
			}
			if s := tab.String(); strings.Contains(s, "NaN") {
				t.Errorf("%s figure %d renders NaN:\n%s", name, fig, s)
			}
		}
		claims := r.HeadlineClaims()
		if len(claims) != 1 || claims[0].Name != "no-respondents" || claims[0].Pass ||
			claims[0].Detail != noRespondents {
			t.Errorf("%s: claims = %+v, want one failing no-respondents claim", name, claims)
		}
	}
	all := make([]int, 22)
	for i := range all {
		all[i] = i + 1
	}
	for name, r := range emptyCohorts(t) {
		check(name, r, all)
	}

	r := Study{Seed: 42, NMain: 199}.Run()
	check("no students", r, []int{22})
	for fig := 1; fig <= 21; fig++ {
		if tab := r.Figure(fig); len(tab.Rows) == 0 {
			t.Errorf("no students: figure %d has no rows", fig)
		}
	}
}

// TestPaperPlanOnePass pins "one scan for the paper" as a count: all 22
// figures plus the headline claims scan the main cohort once and the
// student cohort once, and nothing else. The student scan reads the
// five suspicion items alone: streamed off a shard, it reads exactly
// their blocks.
func TestPaperPlanOnePass(t *testing.T) {
	const n, students = 2000, query.BlockRows + 52
	r := Study{Seed: 42, NMain: n, NStudent: students, Workers: 4}.Run()

	reg := telemetry.NewRegistry()
	bytesRead := reg.Counter("test.bytes_read")
	r.studentSrc = query.NewShardSource(shardOf(t, r.StudentCols, colstore.IOOptions{BytesRead: bytesRead}))
	openBytes := bytesRead.Value()

	telemetry.Install(reg)
	defer telemetry.Install(nil)
	for fig := 1; fig <= 22; fig++ {
		_ = r.Figure(fig)
	}
	_ = r.HeadlineClaims()
	if got, want := reg.Counter(telemetry.MetricQueryRowsScanned).Value(), int64(n+students); got != want {
		t.Errorf("query.rows_scanned = %d, want %d (1 plan over %d rows, 1 plan over %d)",
			got, want, n, students)
	}
	// Each Likert block is one byte per respondent plus a 4-byte CRC.
	items := int64(len(quiz.SuspicionItems()))
	want := items * int64(students+4*query.NumBlocks(students))
	if got := bytesRead.Value() - openBytes; got != want {
		t.Errorf("student scan streamed %d bytes, want %d (the %d suspicion items' blocks)", got, want, items)
	}
}

// TestPaperPlanStreamMatchesMemory pins the property a streamed
// report relies on: the plan over an FPDS shard equals the plan over
// the in-memory cohort, at any worker count.
func TestPaperPlanStreamMatchesMemory(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	r := Study{Seed: 42, NMain: 2*query.BlockRows + 300, NStudent: 52}.Run()
	want, err := scanPaper(query.NewDatasetSource(r.Main.Cols), 1)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := r.Main.Cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	sr, err := colstore.NewShardReader(quiz.Columns(), bytes.NewReader(bin.Bytes()), int64(bin.Len()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("NewShardReader: %v", err)
	}
	for _, workers := range []int{1, 4, 16} {
		for name, src := range map[string]query.Source{
			"memory": query.NewDatasetSource(r.Main.Cols),
			"shard":  query.NewShardSource(sr),
		} {
			got, err := scanPaper(src, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: plan differs from the sequential in-memory plan", name, workers)
			}
		}
	}
}

// BenchmarkPaperScan times one uncached paper plan over the main
// cohort: the scan all 22 figures and the claims share.
func BenchmarkPaperScan(b *testing.B) {
	r := Study{Seed: 42, NMain: 100000, NStudent: 52}.Run()
	src := r.MainSource()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanPaper(src, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuspicionScan times one uncached student plan: the scan of
// the five suspicion items Figure 22 and the claims read.
func BenchmarkSuspicionScan(b *testing.B) {
	r := Study{Seed: 42, NMain: 0, NStudent: 100000}.Run()
	src := r.StudentSource()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanSuspicion(src, 0); err != nil {
			b.Fatal(err)
		}
	}
}
