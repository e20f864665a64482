package core

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
)

// figureClaimsFingerprint hashes all 22 figures plus the headline
// claims of a results set.
func figureClaimsFingerprint(t *testing.T, r *Results) [22 + 1][32]byte {
	t.Helper()
	var g [23][32]byte
	for fig := 1; fig <= 22; fig++ {
		g[fig-1] = sha256.Sum256([]byte(r.Figure(fig).String()))
	}
	var claims bytes.Buffer
	for _, c := range r.HeadlineClaims() {
		claims.WriteString(c.Name)
		claims.WriteString(c.Detail)
		if c.Pass {
			claims.WriteByte('1')
		} else {
			claims.WriteByte('0')
		}
	}
	g[22] = sha256.Sum256(claims.Bytes())
	return g
}

// TestGoldenDataPathReproducesRun is the fpreport -data contract at the
// paper's n: serializing the main cohort (both formats), loading it
// back through the sniffing loader, and reporting off the loaded
// columns reproduces every figure and claim of the in-process run
// bit-for-bit (the student cohort regenerates from the same seed
// split).
func TestGoldenDataPathReproducesRun(t *testing.T) {
	s := Study{Seed: 42, NMain: 199, NStudent: 52}
	base := s.Run()
	want := figureClaimsFingerprint(t, base)

	var bin, js bytes.Buffer
	if err := base.Main.Cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	if err := base.Main.Cols.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{{"binary", bin.Bytes()}, {"json", js.Bytes()}} {
		cols, info, err := colstore.Load(quiz.Columns(), bytes.NewReader(tc.data), colstore.IOOptions{})
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		if (tc.name == "binary") != (info.Format == colstore.FormatBinary) {
			t.Fatalf("%s: sniffed as %v", tc.name, info.Format)
		}
		loaded, err := s.ResultsFromColumns(cols, nil)
		if err != nil {
			t.Fatalf("%s: ResultsFromColumns: %v", tc.name, err)
		}
		got := figureClaimsFingerprint(t, loaded)
		for fig := 1; fig <= 22; fig++ {
			if got[fig-1] != want[fig-1] {
				t.Errorf("%s: figure %d differs between the loaded-data run and the in-process run", tc.name, fig)
			}
		}
		if got[22] != want[22] {
			t.Errorf("%s: headline claims differ between the loaded-data run and the in-process run", tc.name)
		}
	}
}

// TestGoldenQueryEngineWorkerSweep pins the query engine's
// determinism contract at the report surface: every figure and claim
// now evaluates through internal/query, and the fingerprints must be
// bit-identical whether the cohort is in-process or FPDS-loaded, at
// workers 1, 4, and 16.
func TestGoldenQueryEngineWorkerSweep(t *testing.T) {
	base := Study{Seed: 42, NMain: 199, NStudent: 52}
	want := figureClaimsFingerprint(t, base.Run())

	var bin bytes.Buffer
	if err := base.Run().Main.Cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}

	for _, workers := range []int{1, 4, 16} {
		s := base
		s.Workers = workers
		if got := figureClaimsFingerprint(t, s.Run()); got != want {
			t.Errorf("workers=%d: in-process figures/claims differ", workers)
		}
		cols, _, err := colstore.Load(quiz.Columns(), bytes.NewReader(bin.Bytes()), colstore.IOOptions{})
		if err != nil {
			t.Fatalf("workers=%d: Load: %v", workers, err)
		}
		loaded, err := s.ResultsFromColumns(cols, nil)
		if err != nil {
			t.Fatalf("workers=%d: ResultsFromColumns: %v", workers, err)
		}
		if got := figureClaimsFingerprint(t, loaded); got != want {
			t.Errorf("workers=%d: FPDS-loaded figures/claims differ", workers)
		}
	}
}

// TestGoldenDataPathStudentFile extends the -data contract to an
// explicit -studentdata file: loading both cohorts from disk matches
// the in-process run too.
func TestGoldenDataPathStudentFile(t *testing.T) {
	s := Study{Seed: 42, NMain: 199, NStudent: 52}
	base := s.Run()
	want := figureClaimsFingerprint(t, base)

	var mainBin, studentBin bytes.Buffer
	if err := base.Main.Cols.EncodeBinary(&mainBin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary(main): %v", err)
	}
	if err := base.StudentCols.EncodeBinary(&studentBin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary(students): %v", err)
	}
	mainCols, _, err := colstore.Load(quiz.Columns(), bytes.NewReader(mainBin.Bytes()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("Load(main): %v", err)
	}
	studentCols, _, err := colstore.Load(quiz.Columns(), bytes.NewReader(studentBin.Bytes()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("Load(students): %v", err)
	}
	loaded, err := s.ResultsFromColumns(mainCols, studentCols)
	if err != nil {
		t.Fatalf("ResultsFromColumns: %v", err)
	}
	got := figureClaimsFingerprint(t, loaded)
	if got != want {
		t.Errorf("figures/claims differ when both cohorts load from files")
	}
}

// TestGoldenIOTelemetryInvariance pins the codec's observability
// contract: the bytes written and the dataset decoded are identical
// with the telemetry counters, stage probe, and tracer installed or
// not, at workers 1, 4, and 16 — and the I/O counters actually count.
func TestGoldenIOTelemetryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-respondent cohort encodes; skipped in -short mode")
	}
	s := Study{Seed: 42, NMain: 2000, NStudent: 52}
	cols := s.Run().Main.Cols

	encode := func(opt colstore.IOOptions) []byte {
		var buf bytes.Buffer
		if err := cols.EncodeBinary(&buf, opt); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
		return buf.Bytes()
	}
	want := encode(colstore.IOOptions{Workers: 1})

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	tracer := telemetry.NewTracer(8, 1<<12)
	telemetry.SetTracer(tracer)
	defer telemetry.SetTracer(nil)
	written := reg.Counter(telemetry.MetricIOBytesWritten)
	read := reg.Counter(telemetry.MetricIOBytesRead)

	for _, workers := range []int{1, 4, 16} {
		got := encode(colstore.IOOptions{Workers: workers, BytesWritten: written})
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: instrumented encode produced different bytes", workers)
		}
		d, err := colstore.DecodeBinary(quiz.Columns(), bytes.NewReader(got),
			colstore.IOOptions{Workers: workers, BytesRead: read})
		if err != nil {
			t.Fatalf("workers=%d: DecodeBinary: %v", workers, err)
		}
		var plain, instr bytes.Buffer
		if err := cols.WriteJSON(&plain); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteJSON(&instr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), instr.Bytes()) {
			t.Errorf("workers=%d: instrumented decode produced a different dataset", workers)
		}
	}

	if got := written.Value(); got != int64(3*len(want)) {
		t.Errorf("io.bytes_written = %d, want %d (3 encodes of %d bytes)", got, 3*len(want), len(want))
	}
	if got := read.Value(); got != int64(3*len(want)) {
		t.Errorf("io.bytes_read = %d, want %d (3 decodes of %d bytes)", got, 3*len(want), len(want))
	}
}
