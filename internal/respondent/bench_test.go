package respondent

import (
	"fmt"
	"os"
	"testing"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
)

// benchSizes are the cohort sizes the per-stage benchmarks run at. The
// 1M case takes seconds per rep and is gated behind FPSTUDY_BENCH_LARGE=1,
// matching the top-level BenchmarkStudyPipeline convention.
var benchSizes = []int{10000, 1000000}

func skipLarge(b *testing.B, n int) {
	if n >= 1000000 && os.Getenv("FPSTUDY_BENCH_LARGE") == "" {
		b.Skip("set FPSTUDY_BENCH_LARGE=1 to run the 1M-respondent benchmark")
	}
}

// BenchmarkCalibrateModels times the calibration stage in isolation:
// building the ability kernels and bisecting every question model's
// difficulty offset against the paper's Figure 14/15 targets. Reported
// per respondent of the calibration cohort (capped at calibrationCap).
func BenchmarkCalibrateModels(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			core, opt := drawAbilities(0, 42, min(n, calibrationCap), true)
			cohort := len(core)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				models := calibrateModels(0, core, opt, quizSpecs())
				if len(models) == 0 {
					b.Fatal("calibration produced no models")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cohort), "ns/respondent")
		})
	}
}

// BenchmarkGenerateBlocks times the fused generation pass in isolation:
// every block of the cohort draws its backgrounds and samples every
// answer column into a pre-allocated dataset, with models already
// calibrated, serially on one worker. Reported per respondent.
func BenchmarkGenerateBlocks(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLarge(b, n)
			core, opt := drawAbilities(0, 42, min(n, calibrationCap), true)
			models := calibrateModels(0, core, opt, quizSpecs())
			d := quiz.Columns().NewDataset("1.0", n)
			cs := newColSampler(d, models, paperdata.Figure22Main)
			scratch := newBlockScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < parallel.NumShards(n); s++ {
					lo, hi := parallel.ShardBounds(s, n)
					cs.sampleBlock(scratch, 42, lo, hi, nil)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/respondent")
		})
	}
}

// BenchmarkTreatedCoreCorrect times the training intervention's scoring
// at n=50,000: calibrating the core models on the untreated cohort and
// counting the correct core answers under each of the four formal
// training levels from shared draws.
func BenchmarkTreatedCoreCorrect(b *testing.B) {
	const n = 50_000
	var overrides []func(*Profile)
	for _, level := range []string{
		"None",
		"One or more lectures in course",
		"One or more weeks within a course",
		"One or more courses",
	} {
		overrides = append(overrides, func(p *Profile) { p.FormalTraining = level })
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TreatedCoreCorrect(42, n, 0, overrides)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/respondent")
}
