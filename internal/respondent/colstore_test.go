package respondent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
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

// TestSampleZeroAlloc pins the zero-allocation contract of the fused
// block pass: drawing a whole block's backgrounds through the worker's
// Profile (with and without an override), deriving their abilities and
// sampling their responses into the columns must not touch the heap.
func TestSampleZeroAlloc(t *testing.T) {
	const n = 64
	core, opt := drawAbilities(1, 42, n, true)
	models := calibrateModels(0, core, opt, quizSpecs())
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
	core, opt := drawAbilities(1, 42, n, false)
	specs := quizSpecs()[:len(quiz.CoreQuestions())]
	overrides := []func(*Profile){
		nil,
		func(p *Profile) { p.FormalTraining = "None" },
		func(p *Profile) { p.FormalTraining = "One or more courses" },
	}
	tc := newTreatedCounter(calibrateModels(0, core, opt, specs), overrides)
	b := newTreatedScratch()
	counts := make([]int, len(overrides))
	allocs := testing.AllocsPerRun(50, func() {
		tc.countBlock(b, 42, 0, n, counts)
	})
	if allocs != 0 {
		t.Fatalf("treated block count allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestStudentSampleZeroAlloc pins the same contract for the block body
// GenerateStudentsColumnar runs: sampling a block of the student
// suspicion cohort must not touch the heap.
func TestStudentSampleZeroAlloc(t *testing.T) {
	const n = 64
	ss := newStudentSampler(quiz.Columns().NewDataset("1.0-student", n), 43)
	allocs := testing.AllocsPerRun(50, func() { ss.sampleBlock(0, n) })
	if allocs != 0 {
		t.Fatalf("student block allocates %.1f allocs/block, want 0", allocs)
	}
}

// sweepKernel returns an ability kernel over n standard normal
// abilities and the answer weights of a typical question.
func sweepKernel(n int) (*abilityKernel, []float64) {
	abil := make([]float64, n)
	x := parallel.At(parallel.StreamBase(1, 1), 1)
	for i := range abil {
		abil[i], _, x = x.NormPair()
	}
	k := newAbilityKernel(1, abil)
	w := make([]float64, n)
	k.weights(&questionModel{pUn: 0.05, pDK: 0.2}, w)
	return k, w
}

// TestCalibrationSweepZeroAlloc pins the batched calibration kernel's
// inner loop: one bisection-step sweep over the cohort allocates
// nothing.
func TestCalibrationSweepZeroAlloc(t *testing.T) {
	k, w := sweepKernel(4096)
	allocs := testing.AllocsPerRun(50, func() {
		_ = k.expectCorrect(w, 0.3)
	})
	if allocs != 0 {
		t.Fatalf("calibration sweep allocates %.1f allocs/sweep over %d respondents, want 0", allocs, len(w))
	}
}

// TestExpectCorrectInstrumentedZeroAlloc pins the sweep's contract
// under observation: with the probe installed and a tracer set, a sweep
// over several fixed shards still allocates nothing, records no event,
// and returns the bits of the unobserved sweep and of the shard-order
// sum it is defined as.
func TestExpectCorrectInstrumentedZeroAlloc(t *testing.T) {
	const n = 3*4096 + 17
	k, w := sweepKernel(n)
	const offset = 0.3
	want := 0.0
	for lo := 0; lo < n; lo += 4096 {
		sub := 0.0
		for i := lo; i < min(lo+4096, n); i++ {
			sub += w[i] / (1 + math.Exp(-offset)*k.expNeg[i])
		}
		want += sub
	}
	want /= n
	var plain, probed float64
	if allocs := testing.AllocsPerRun(50, func() { plain = k.expectCorrect(w, offset) }); allocs != 0 {
		t.Fatalf("uninstrumented sweep allocates %.1f/op, want 0", allocs)
	}
	telemetry.Install(telemetry.NewRegistry())
	defer telemetry.Install(nil)
	tracer := telemetry.NewTracer(2, 1<<10)
	telemetry.SetTracer(tracer)
	defer telemetry.SetTracer(nil)
	if allocs := testing.AllocsPerRun(50, func() { probed = k.expectCorrect(w, offset) }); allocs != 0 {
		t.Fatalf("instrumented sweep allocates %.1f/op, want 0", allocs)
	}
	if math.Float64bits(plain) != math.Float64bits(want) || math.Float64bits(probed) != math.Float64bits(want) {
		t.Fatalf("sweep = %v uninstrumented, %v instrumented; shard-order sum %v", plain, probed, want)
	}
	if got := tracer.Recorded(); got != 0 {
		t.Fatalf("sweep recorded %d trace events, want 0", got)
	}
}

// BenchmarkSampleBlock times the fused block pass in isolation (models
// pre-calibrated, columns pre-allocated): background draw, abilities
// and responses for one block, reported per respondent.
func BenchmarkSampleBlock(b *testing.B) {
	const blockN = 1024
	core, opt := drawAbilities(0, 42, blockN, true)
	models := calibrateModels(0, core, opt, quizSpecs())
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
