package respondent

import (
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
)

// TreatedCoreCorrect runs policy experiments ("what if everyone had a
// full course of floating point training?") and returns, for each
// override, the total number of correct core answers in the treated
// cohort: the cohort GenerateMainColumnar(seed, n, workers, override)
// generates, graded. It builds no dataset and grades nothing.
//
// The core question models are fitted once, to the untreated cohort
// for (seed, n), so an intervention shows a real shift instead of being
// normalized away. Every override then shares one pass over the fixed
// 4096-respondent blocks (see treatedCounter.countBlock). Per-block
// counts are integers summed in block order, so the result is exact at
// any worker count. For n = 0 it returns zeros and calibrates nothing.
func TreatedCoreCorrect(seed int64, n, workers int, overrides []func(*Profile)) []int {
	counts := make([]int, len(overrides))
	if n <= 0 {
		return counts
	}
	workers = parallel.Workers(workers, n)
	specs := quizSpecs()[:len(quiz.CoreQuestions())]
	tc := newTreatedCounter(calibratePrefix(workers, seed, n, specs), overrides)
	nk := len(overrides)
	blocks := make([]int, parallel.NumShards(n)*nk)
	parallel.ForEachWith(workers, parallel.NumShards(n), newTreatedScratch,
		func(b *treatedScratch, s int) {
			lo, hi := parallel.ShardBounds(s, n)
			tc.countBlock(b, seed, lo, hi, blocks[s*nk:(s+1)*nk])
		})
	for s := 0; s < parallel.NumShards(n); s++ {
		for k := range counts {
			counts[k] += blocks[s*nk+k]
		}
	}
	return counts
}

// treatedCounter scores every override's treated cohort from one set of
// draws. Its models carry only the response sub-stream and e^(-offset)
// of their colModel binding: the counter writes no column.
type treatedCounter struct {
	models    []colModel
	overrides []func(*Profile)
}

func newTreatedCounter(models []questionModel, overrides []func(*Profile)) *treatedCounter {
	tc := &treatedCounter{overrides: overrides}
	for k, qm := range models {
		tc.models = append(tc.models, newColModel(qm, k))
	}
	return tc
}

// treatedScratch is one worker's reusable state for countBlock: the
// drawn background and its treated copy, and every override's core
// ability and e^(-a) for the block, respondent-major (index
// j*len(overrides)+k).
type treatedScratch struct {
	bg, p        Profile
	abil, expNeg []float64
}

func newTreatedScratch() *treatedScratch { return &treatedScratch{} }

// fit sizes the block-local arrays for m entries; they grow only on a
// worker's first block.
func (b *treatedScratch) fit(m int) {
	if cap(b.abil) < m {
		b.abil, b.expNeg = make([]float64, m), make([]float64, m)
	}
	b.abil, b.expNeg = b.abil[:m], b.expNeg[:m]
}

// countBlock adds to counts[k] the correct core answers of respondents
// [lo, hi) under override k, deciding each one exactly as
// colSampler.sampleBlock would sample it.
//
// First, each background and its NormPair ability noise are drawn once
// on the respondent's profile stream. drawProfile applies the override
// between the two draws, but an override consumes no draws, so the
// noise is the same under every override; each override is applied to
// a copy of the background, which is re-indexed and given its
// abilities.
//
// Second, each core cell's generator is positioned once on its
// response sub-stream and held by value. sampleInto draws the
// unanswered, don't-know and correctness uniforms in that order, and
// only the don't-know and correctness thresholds depend on ability,
// so every override walks the same uniforms: one unanswered draw
// decides all of them, and the don't-know and correctness draws are
// taken lazily, at most once, by the first override that reaches
// them. Each override's outcome is then sampleInto's, through dkProb
// and the correctGate bracket. A wrong answer's retry draws come
// after these and never change the count. Once b has grown to the
// block size the pass allocates nothing.
func (tc *treatedCounter) countBlock(b *treatedScratch, seed int64, lo, hi int, counts []int) {
	nk := len(tc.overrides)
	b.fit((hi - lo) * nk)
	pb := parallel.StreamBase(seed, streamProfile)
	for i := lo; i < hi; i++ {
		noiseCore, noiseOpt, _ := drawBackground(parallel.At(pb, int64(i)), &b.bg).NormPair()
		row := (i - lo) * nk
		for k, override := range tc.overrides {
			b.p = b.bg
			if override != nil {
				override(&b.p)
				reindexProfile(&b.p)
			}
			assignAbilities(&b.p, noiseCore, noiseOpt)
			b.abil[row+k], b.expNeg[row+k] = b.p.Ability, expNeg(b.p.Ability)
		}
	}
	rb := parallel.StreamBase(seed, streamResponse)
	for q := range tc.models {
		m := &tc.models[q]
		for i := lo; i < hi; i++ {
			r, x := parallel.At(rb, int64(i)<<subStreamBits|int64(m.sub)).Next()
			if r>>11 < m.unTh {
				continue
			}
			r, x = x.Next()
			uDK := parallel.Float64(r)
			uCorrect, drawn := 0.0, false
			row := (i - lo) * nk
			for k := range counts {
				a := b.abil[row+k]
				if uDK < m.dkProb(a) {
					continue
				}
				if !drawn {
					r, _ = x.Next()
					uCorrect, drawn = parallel.Float64(r), true
				}
				if correctGate(uCorrect, m.offset, a, m.expNegOffset, b.expNeg[row+k]) {
					counts[k]++
				}
			}
		}
	}
}
