package respondent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// Pinned sha256 hashes of the serialized paper-sized cohorts. Any
// drift here is a fidelity regression, not a tuning change.
//
// Re-pinned once for the batched-generation rewrite (see DESIGN.md,
// "Generation hot path"): the hot path moved from math/rand to the
// repositionable xoshiro256++ generator with per-(respondent, column)
// sub-streams, and calibration's invlogit(offset+a) was refactored to
// 1/(1+exp(-offset)·exp(-a)), both of which change the serialized
// stream. The statistical gates (marginals, factor effects, Figure
// 14/15/22 breakdowns) held across the re-pin, and worker-count
// invariance is still enforced against these exact bytes.
const (
	goldenMainSHA    = "4c72166dec3d1510317a1e9ad175309bd67d40a488df500064b4d85f900fbdd3" // seed 42, n=199
	goldenStudentSHA = "af40b7a73515f1588b3853d2d5f076a2a5b9889981f027aafe9540925ce6a15b" // seed 43, n=52
)

// TestColumnarGoldenHashes pins the serialized output of the columnar
// generators to the pre-columnar byte stream for the paper's cohort
// sizes and seeds.
func TestColumnarGoldenHashes(t *testing.T) {
	main := GenerateMainColumnar(42, paperdata.NMain, 0, nil, Instrumentation{})
	var buf bytes.Buffer
	if err := main.Cols.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenMainSHA {
		t.Errorf("main cohort hash = %s, want %s", got, goldenMainSHA)
	}

	students := GenerateStudentsColumnar(43, paperdata.NStudent, 0, Instrumentation{})
	buf.Reset()
	if err := students.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum = sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenStudentSHA {
		t.Errorf("student cohort hash = %s, want %s", got, goldenStudentSHA)
	}
}

// FPDS sha256 pins for seed-7, n=70,000 cohorts: past calibrationCap,
// so 18 generation shards with a partial tail. Recorded from the
// generator that still materialized a Profile row per respondent; the
// fused block pass must reproduce them byte for byte.
const (
	goldenMain70kSHA    = "05b2fc1555a2f1c0a9d311b022aad70231169c0d0770c2327f5c7f4bd9c4d06e"
	goldenTreated70kSHA = "071bb785dbeb015082c54420ecec7dc1f79088393d5ee0865e6859d9a3d4db3b" // FormalTraining forced to "None"
)

// TestColumnarGoldenHashesPastCap pins the FPDS bytes of the main
// cohort and one treated cohort beyond the calibration prefix at
// workers 1, 3 and 16.
func TestColumnarGoldenHashesPastCap(t *testing.T) {
	if testing.Short() {
		t.Skip("70,000-respondent cohorts; skipped in -short mode")
	}
	const seed, n = 7, 70000
	// parallel.Workers clamps worker counts to GOMAXPROCS.
	if runtime.GOMAXPROCS(0) < 16 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	}
	fpdsSHA := func(pop *Population) string {
		var buf bytes.Buffer
		if err := pop.Cols.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	none := func(p *Profile) { p.FormalTraining = "None" }
	for _, workers := range []int{1, 3, 16} {
		main := GenerateMainColumnar(seed, n, workers, nil, Instrumentation{})
		if got := fpdsSHA(main); got != goldenMain70kSHA {
			t.Errorf("workers=%d: main cohort FPDS hash = %s, want %s", workers, got, goldenMain70kSHA)
		}
		treated := GenerateMainColumnar(seed, n, workers, none, Instrumentation{})
		if got := fpdsSHA(treated); got != goldenTreated70kSHA {
			t.Errorf("workers=%d: treated cohort FPDS hash = %s, want %s", workers, got, goldenTreated70kSHA)
		}
	}
}

// TestWriteJSONMatchesRowEncoding asserts that streaming serialization
// from the columns produces exactly the bytes encoding/json produces on
// the materialized row view — the invariant that lets fpgen skip
// materialization entirely.
func TestWriteJSONMatchesRowEncoding(t *testing.T) {
	pop := GenerateMainColumnar(42, 60, 0, nil, Instrumentation{})
	var buf bytes.Buffer
	if err := pop.Cols.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := survey.EncodeDataset(pop.MaterializeDataset(0))
	if err != nil {
		t.Fatalf("EncodeDataset: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("columnar stream diverged from row encoding (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}

// TestColumnarMaterializeEqualsLegacyRows checks the materialized row
// view of a columnar cohort against the historical row generator
// output shape: same tokens, same answers for a sample of respondents.
func TestColumnarMaterializeEqualsLegacyRows(t *testing.T) {
	pop := GenerateMain(11, 80)
	if pop.Cols == nil || pop.Dataset == nil {
		t.Fatal("GenerateMain must populate both columns and row view")
	}
	rt := pop.Cols.ToSurvey()
	if len(rt.Responses) != len(pop.Dataset.Responses) {
		t.Fatalf("row counts differ: %d vs %d", len(rt.Responses), len(pop.Dataset.Responses))
	}
	for _, i := range []int{0, 1, 37, 79} {
		a, b := rt.Responses[i], pop.Dataset.Responses[i]
		if a.Token != b.Token {
			t.Fatalf("respondent %d token %q != %q", i, a.Token, b.Token)
		}
		if len(a.Answers) != len(b.Answers) {
			t.Fatalf("respondent %d answer counts differ", i)
		}
		for id, ans := range b.Answers {
			got := a.Answers[id]
			if got.Choice != ans.Choice || got.Level != ans.Level ||
				len(got.Choices) != len(ans.Choices) {
				t.Fatalf("respondent %d question %s: %+v != %+v", i, id, got, ans)
			}
		}
	}
}

// TestSampleZeroAlloc pins the zero-allocation contract of the fused
// block pass: drawing a whole block's backgrounds through the worker's
// Profile (with and without an override), deriving their abilities and
// sampling their responses into the columns must not touch the heap.
func TestSampleZeroAlloc(t *testing.T) {
	const n = 64
	core, opt := drawAbilities(1, 42, n)
	models := calibrateModels(0, core, opt, quizSpecs(), Instrumentation{})
	d := quiz.Columns().NewDataset("1.0", n)
	cs := newColSampler(d, models, paperdata.Figure22Main)
	b := newBlockScratch()
	for _, tc := range []struct {
		name     string
		override func(*Profile)
	}{
		{"untreated", nil},
		{"override", func(p *Profile) { p.FormalTraining = "None" }},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			cs.sampleBlock(b, 42, 0, n, tc.override)
		})
		if allocs != 0 {
			t.Errorf("%s: fused block allocates %.1f allocs/block, want 0", tc.name, allocs)
		}
	}
}

// TestTreatedCountZeroAlloc pins the same contract for the training
// intervention's block pass: drawing a block's backgrounds once,
// deriving every override's abilities and counting every override's
// correct core answers must not touch the heap once the worker's
// scratch has grown.
func TestTreatedCountZeroAlloc(t *testing.T) {
	const n = 64
	core, opt := drawAbilities(1, 42, n)
	specs := quizSpecs()[:len(quiz.CoreQuestions())]
	overrides := []func(*Profile){
		nil,
		func(p *Profile) { p.FormalTraining = "None" },
		func(p *Profile) { p.FormalTraining = "One or more courses" },
	}
	tc := newTreatedCounter(calibrateModels(0, core, opt, specs, Instrumentation{}), overrides)
	b := newTreatedScratch()
	counts := make([]int, len(overrides))
	allocs := testing.AllocsPerRun(50, func() {
		tc.countBlock(b, 42, 0, n, counts)
	})
	if allocs != 0 {
		t.Fatalf("treated block count allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestStudentSampleZeroAlloc pins the same contract for the student
// suspicion cohort's column-major inner loop.
func TestStudentSampleZeroAlloc(t *testing.T) {
	d := quiz.Columns().NewDataset("1.0-student", 64)
	items := quiz.SuspicionItems()
	suspCI := make([]int, len(items))
	suspCum := make([][5]float64, len(items))
	for k, it := range items {
		suspCI[k] = d.Schema.MustColumnIndex(it.ID)
		suspCum[k] = cumulative(paperdata.Figure22Student[k].Percent)
	}
	rng := parallel.NewXRand()

	allocs := testing.AllocsPerRun(50, func() {
		for k := range suspCI {
			for i := 0; i < 64; i++ {
				rng.SeedAt(43, streamStudent, int64(i)<<subStreamBits|int64(k))
				d.SetLikert(suspCI[k], i, drawLikert(rng, &suspCum[k]))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("student inner loop allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestCalibrationSweepZeroAlloc pins the batched calibration kernel's
// inner loop: one bisection-step sweep over the cohort must cost at
// most the fixed closure setup — 0 allocs per respondent.
func TestCalibrationSweepZeroAlloc(t *testing.T) {
	abil := make([]float64, 4096)
	rng := parallel.NewXRand()
	rng.SeedAt(1, 1, 1)
	for i := range abil {
		a, _ := rng.NormPair()
		abil[i] = a
	}
	k := newAbilityKernel(1, abil)
	qm := questionModel{pUn: 0.05, pDK: 0.2}
	w := make([]float64, len(abil))
	k.weights(qm, w)
	allocs := testing.AllocsPerRun(50, func() {
		_ = k.expectCorrect(1, w, 0.3)
	})
	// The sweep closure itself may cost a fixed allocation; anything
	// scaling with the cohort is a regression.
	if allocs > 2 {
		t.Fatalf("calibration sweep allocates %.1f allocs/sweep over %d respondents, want <= 2 fixed",
			allocs, len(abil))
	}
}

// BenchmarkSampleBlock times the fused block pass in isolation (models
// pre-calibrated, columns pre-allocated): background draw, abilities
// and responses for one block, reported per respondent.
func BenchmarkSampleBlock(b *testing.B) {
	const blockN = 1024
	core, opt := drawAbilities(0, 42, blockN)
	models := calibrateModels(0, core, opt, quizSpecs(), Instrumentation{})
	d := quiz.Columns().NewDataset("1.0", blockN)
	cs := newColSampler(d, models, paperdata.Figure22Main)
	scratch := newBlockScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cs.sampleBlock(scratch, 42, 0, blockN, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blockN, "ns/respondent")
}
