// Package respondent is the synthetic-population substitute for the
// paper's 199 human developers (and 52 students). The paper's analysis
// pipeline consumes anonymous response records; this package generates
// such records from a calibrated latent-ability model:
//
//  1. Background profiles are drawn from the paper's published
//     marginals (Figures 1-11).
//  2. Each respondent gets a latent floating point ability derived from
//     background factors with effect sizes digitized from Figures
//     16-19 (codebase size strongest, then area, role, training) plus
//     individual noise.
//  3. Per-question response behaviour (correct / incorrect / don't know
//     / unanswered) follows an item-response model whose per-question
//     offsets are calibrated by bisection so the population reproduces
//     the paper's per-question breakdowns (Figures 14-15), while the
//     ability structure reproduces the factor effects.
//  4. Suspicion answers are drawn from the digitized Figure 22
//     distributions.
//
// Everything is deterministic given a seed. Generation is
// shard-splittable: each respondent owns RNG streams derived from
// (seed, stream, index) via internal/parallel, so cohorts are generated
// concurrently with output bit-identical to sequential generation at
// any worker count.
//
// The hot path is batched (see DESIGN.md "Generation hot path"):
// profiles and responses are produced in fixed 4096-respondent blocks,
// responses column-major within a block, each (respondent, column) cell
// drawing from a generator positioned on its own sub-stream and held in
// registers by value.
package respondent

import (
	"math"
	"math/bits"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// Instrumentation carries the optional progress counter of one
// generation run; the zero value reports no progress. The stages of a
// generation (draw-profiles, calibrate, sample-responses) are timed by
// the process-wide telemetry probe, not through this type.
// Instrumentation observes only — it never draws randomness or moves
// shard boundaries, so the generated dataset is bit-identical with or
// without it (pinned by internal/core.TestGoldenParallelDeterminism).
type Instrumentation struct {
	// Progress advances by the block size as each fixed block of
	// respondents is sampled, so a cohort of n advances it by n in
	// total (the calibration prefix is not counted). fpgen -progress
	// streams this counter to stderr.
	Progress *telemetry.Counter
}

// RNG stream identifiers. Each respondent index owns one independent
// stream per phase, which is what makes generation order-independent:
// respondent i's draws never depend on how many respondents came
// before it. Within the response and student streams, the index is
// packed as (respondent << subStreamBits | column), giving every
// (respondent, question) cell its own stream — the property that lets
// the sampler traverse blocks column-major. The bootstrap in
// internal/stats owns stream 4; DESIGN.md "Concurrency model" lists
// every id.
const (
	streamProfile  uint64 = 10 // background + ability noise
	streamResponse uint64 = 2  // quiz answers + suspicion
	streamStudent  uint64 = 3  // student suspicion answers
)

// subStreamBits is the width of the per-column sub-stream field packed
// into the low bits of a response-stream index: up to 32 columns per
// respondent (15 core + 4 opt + 5 suspicion used today).
const subStreamBits = 5

// profileIdx caches each single-choice factor's entry index in its
// paperdata table (= its bgTables entry), resolved at draw time and
// re-derived when an override rewrites the labels. The sampler and the
// ability model address tables by these indices instead of hashing
// label strings per respondent.
type profileIdx struct {
	position, area, training, role int16
	contribSize, contribExtent     int16
	involvedSize, involvedExtent   int16
}

// Profile is one synthetic participant's background.
type Profile struct {
	Position       string
	Area           string
	FormalTraining string
	Role           string
	ContribSize    string
	ContribExtent  string
	InvolvedSize   string
	InvolvedExtent string

	// The multi-select factors as option bitsets over their schema
	// columns (bit j = option with code j+1, table order). The paper's
	// analysis only ever consumes these lists by size ("very short
	// lists predict bad scores") and by serialized choice set, both of
	// which the mask carries without a per-respondent allocation.
	InformalMask    uint64
	FPLanguagesMask uint64
	ArbPrecMask     uint64

	// Ability is the latent core-quiz skill in logit units (0 =
	// population average).
	Ability float64
	// OptAbility is the latent optimization-quiz skill.
	OptAbility float64

	idx profileIdx
}

// Population is a generated cohort: Cols is the columnar dataset the
// respondents were sampled directly into (see internal/colstore).
type Population struct {
	Cols *colstore.Dataset
}

// Effect sizes in core-quiz score points (digitized from Figures
// 16-19). They are centered against the population marginals at model
// construction, so they encode differences, not absolute levels.
var (
	contribSizeEffect = map[string]float64{
		"<100 lines of code":                 -1.3,
		"100 to 1,000 lines of code":         -0.9,
		"1,001 to 10,000 lines of code":      -0.4,
		"10,001 to 100,000 lines of code":    0.5,
		"100,001 to 1,000,000 lines of code": 1.3,
		">1,000,000 lines of code":           2.2,
	}
	areaEffect = map[string]float64{
		"Electrical Engineering":       2.2,
		"Computer Science":             1.5,
		"Computer Engineering":         1.5,
		"CS&CE":                        1.5,
		"CS&Math":                      1.5,
		"Mathematics":                  0.5,
		"Other Physical Science Field": -1.0,
		"Other Engineering Field":      -1.0,
	}
	areaEffectDefault = -0.7 // all remaining small-n areas
	roleEffect        = map[string]float64{
		"My main role is as a software engineer":                       1.0,
		"My main role is to manage software engineers":                 0.5,
		"I manage others who develop software to support my main role": 0.0,
		"I develop software to support my main role":                   -0.3,
	}
	trainingEffect = map[string]float64{
		"One or more courses":               0.7,
		"One or more weeks within a course": 0.4,
		"One or more lectures in course":    0.0,
		"None":                              -0.5,
	}
	// Working on numeric correctness yourself or in your team adds a
	// small amount (the paper: ~2/15 relative to non-intrinsic FP).
	correctnessBonus = 0.8

	// "Very short lists predict bad scores": respondents reporting at
	// most one floating point language, or no informal training at
	// all, sit lower (the paper found the content of the lists did
	// not matter, only their nonemptiness).
	shortListPenalty = 0.7

	// Optimization-quiz effects (Figures 20-21), in opt-score points.
	optRoleEffect = map[string]float64{
		"My main role is as a software engineer":                       0.55,
		"My main role is to manage software engineers":                 0.3,
		"I manage others who develop software to support my main role": -0.05,
		"I develop software to support my main role":                   -0.15,
	}
	optAreaEffect = map[string]float64{
		"Electrical Engineering":       0.45,
		"Computer Science":             0.35,
		"Computer Engineering":         0.35,
		"CS&CE":                        0.35,
		"CS&Math":                      0.35,
		"Mathematics":                  0.0,
		"Other Physical Science Field": -0.25,
		"Other Engineering Field":      -0.25,
	}
	optAreaEffectDefault = -0.2
)

// pointsPerLogit converts score points to logit-scale ability: the
// derivative of expected core score with respect to ability, roughly
// sum over questions of p(1-p) on answered questions.
const pointsPerLogit = 2.9

// optPointsPerLogit is the same conversion for the optimization quiz
// (3 scored T/F questions, mostly unanswered/DK, so the slope is small).
const optPointsPerLogit = 0.55

// centeredEffect looks up an effect and subtracts the population mean
// of the effect under the given marginals. Used once per table entry at
// bgTables construction; the hot path reads the precomputed arrays.
func centeredEffect(effects map[string]float64, def float64, level string, marginals []paperdata.CountEntry) float64 {
	get := func(l string) float64 {
		if v, ok := effects[l]; ok {
			return v
		}
		return def
	}
	total := 0
	mean := 0.0
	for _, e := range marginals {
		total += e.N
		mean += float64(e.N) * get(e.Label)
	}
	mean /= float64(total)
	return get(level) - mean
}

// drawProfile draws one background into p from the generator x,
// positioned on the respondent's profile stream, applies an optional
// override to the background factors, and then derives abilities — so
// an intervention (forcing a factor level) feeds through the ability
// model exactly as the fitted effects dictate. Every field of p is
// overwritten, so a caller can reuse one Profile for a whole block.
func drawProfile(x parallel.XRand, p *Profile, override func(*Profile)) {
	x = drawBackground(x, p)
	if override != nil {
		override(p)
		reindexProfile(p)
	}
	noiseCore, noiseOpt, _ := x.NormPair()
	assignAbilities(p, noiseCore, noiseOpt)
}

// drawBackground draws the background factors into p, in the
// instrument's order, and returns the generator past their draws: one
// draw per single-choice question and one per multi-select option.
func drawBackground(x parallel.XRand, p *Profile) parallel.XRand {
	t := tables()
	var r uint64
	r, x = x.Next()
	p.idx.position = t.position.entry(r)
	p.Position = t.position.labels[p.idx.position]
	r, x = x.Next()
	p.idx.area = t.area.entry(r)
	p.Area = t.area.labels[p.idx.area]
	r, x = x.Next()
	p.idx.training = t.training.entry(r)
	p.FormalTraining = t.training.labels[p.idx.training]
	p.InformalMask, x = t.informal.mask(x)
	r, x = x.Next()
	p.idx.role = t.role.entry(r)
	p.Role = t.role.labels[p.idx.role]
	p.FPLanguagesMask, x = t.languages.mask(x)
	p.ArbPrecMask, x = t.arbprec.mask(x)
	r, x = x.Next()
	p.idx.contribSize = t.contribSize.entry(r)
	p.ContribSize = t.contribSize.labels[p.idx.contribSize]
	r, x = x.Next()
	p.idx.contribExtent = t.contribExtent.entry(r)
	p.ContribExtent = t.contribExtent.labels[p.idx.contribExtent]
	r, x = x.Next()
	p.idx.involvedSize = t.involvedSize.entry(r)
	p.InvolvedSize = t.involvedSize.labels[p.idx.involvedSize]
	r, x = x.Next()
	p.idx.involvedExtent = t.involvedExtent.entry(r)
	p.InvolvedExtent = t.involvedExtent.labels[p.idx.involvedExtent]
	return x
}

// reindexProfile re-derives the cached entry indices after an override
// may have rewritten label fields. An index whose label still matches
// is kept, so only the labels the override rewrote go through the
// label map. Unknown labels panic: an intervention must force a level
// the instrument actually offers.
func reindexProfile(p *Profile) {
	t := tables()
	t.position.reindex(quiz.BGPosition, p.Position, &p.idx.position)
	t.area.reindex(quiz.BGArea, p.Area, &p.idx.area)
	t.training.reindex(quiz.BGFormalTraining, p.FormalTraining, &p.idx.training)
	t.role.reindex(quiz.BGRole, p.Role, &p.idx.role)
	t.contribSize.reindex(quiz.BGContribSize, p.ContribSize, &p.idx.contribSize)
	t.contribExtent.reindex(quiz.BGContribExtent, p.ContribExtent, &p.idx.contribExtent)
	t.involvedSize.reindex(quiz.BGInvolvedSize, p.InvolvedSize, &p.idx.involvedSize)
	t.involvedExtent.reindex(quiz.BGInvolvedExtent, p.InvolvedExtent, &p.idx.involvedExtent)
}

// assignAbilities derives the latent skills from the background factors
// plus individual noise (passed in so intervention overrides reuse the
// same draws). Effects are read from the precomputed centered tables by
// entry index — no map lookups, no per-call mean re-derivation.
func assignAbilities(p *Profile, noiseCore, noiseOpt float64) {
	t := tables()
	points := t.contribEff[p.idx.contribSize] +
		t.areaEff[p.idx.area] +
		t.roleEff[p.idx.role] +
		t.trainingEff[p.idx.training]
	if t.correctnessContrib[p.idx.contribExtent] || t.correctnessInvolved[p.idx.involvedExtent] {
		points += correctnessBonus
	}
	// The paper's observation about list-valued factors: "very short
	// lists predict bad scores" (having reported *some* informal
	// training or language breadth matters; which one does not).
	if bits.OnesCount64(p.FPLanguagesMask) <= 1 {
		points -= shortListPenalty
	}
	if p.InformalMask == 0 {
		points -= shortListPenalty
	}
	points += noiseCore * 1.2
	p.Ability = points / pointsPerLogit

	optPoints := t.optRoleEff[p.idx.role] + t.optAreaEff[p.idx.area]
	optPoints += noiseOpt * 0.25
	p.OptAbility = optPoints / optPointsPerLogit
}

func isCorrectnessFocused(extent string) bool {
	return extent == "FP intrinsic, I did numerical correctness" ||
		extent == "FP intrinsic, my team did numeric correctness"
}

func invlogit(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// questionModel captures the calibrated response behaviour of one quiz
// question.
type questionModel struct {
	id         string
	pUn        float64 // probability of no answer
	pDK        float64 // baseline probability of "don't know"
	offset     float64 // calibrated logit offset for correctness
	correct    string  // the correct answer string
	choiceSet  []string
	abilityOpt bool // use OptAbility instead of Ability
}

// dkProb is the respondent-specific don't-know probability: higher
// ability reduces willingness to punt, mildly.
func (qm *questionModel) dkProb(ability float64) float64 {
	p := qm.pDK * (1 - 0.25*ability)
	if p < 0 {
		return 0
	}
	if p > 0.95 {
		return 0.95
	}
	return p
}

// drawAbilities draws the untreated profiles 0..m-1 by fixed
// 4096-respondent blocks, each into its worker's scratch Profile from a
// generator positioned on the respondent's profile stream, and keeps
// only their core abilities and, when withOpt is set, their
// optimization abilities (opt is nil otherwise). Both depend only on
// (seed, i).
func drawAbilities(workers int, seed int64, m int, withOpt bool) (core, opt []float64) {
	core = make([]float64, m)
	if withOpt {
		opt = make([]float64, m)
	}
	pb := parallel.StreamBase(seed, streamProfile)
	parallel.ForEachWith(workers, parallel.NumShards(m), newBlockScratch,
		func(b *blockScratch, s int) {
			lo, hi := parallel.ShardBounds(s, m)
			for i := lo; i < hi; i++ {
				drawProfile(parallel.At(pb, int64(i)), &b.p, nil)
				core[i] = b.p.Ability
				if withOpt {
					opt[i] = b.p.OptAbility
				}
			}
		})
	return core, opt
}

// GenerateMainColumnar generates the main cohort directly into columns,
// with no per-respondent Profile rows: each block of respondents is
// drawn, stored and sampled in one pass, and the per-respondent loop performs zero heap allocations. The probe times
// its stages (draw-profiles for the calibration prefix, calibrate,
// sample-responses for the fused pass) and inst streams per-block
// progress; neither affects the generated data.
// A non-nil override is applied to every background before abilities
// are derived, while the question models are still fitted to the
// untreated cohort: that is the treated cohort TreatedCoreCorrect
// scores.
func GenerateMainColumnar(seed int64, n, workers int, override func(*Profile), inst Instrumentation) *Population {
	workers = parallel.Workers(workers, n)
	models := calibratePrefix(workers, seed, n, quizSpecs())
	return sampleColumnar(workers, seed, n, override, models, inst)
}

// calibratePrefix fits the models of specs for an n-respondent cohort.
// Calibration reads at most calibrationCap abilities, and profile i
// depends only on (seed, i), so only the untreated prefix's abilities
// are drawn, under the draw-profiles stage; the optimization abilities
// only when a spec reads them.
func calibratePrefix(workers int, seed int64, n int, specs []modelSpec) []questionModel {
	withOpt := false
	for _, s := range specs {
		withOpt = withOpt || s.qm.abilityOpt
	}
	t0 := telemetry.Start()
	core, opt := drawAbilities(workers, seed, min(n, calibrationCap), withOpt)
	telemetry.Done(telemetry.StageDrawProfiles, 0, t0, int64(len(core)), 0)
	return calibrateModels(workers, core, opt, specs)
}

// sampleColumnar generates an n-respondent cohort with the calibrated
// models in one pass over the fixed 4096-respondent blocks: each block
// draws its backgrounds (with the override applied), stores them and
// samples its responses (see colSampler.sampleBlock).
func sampleColumnar(workers int, seed int64, n int, override func(*Profile), models []questionModel, inst Instrumentation) *Population {
	ts := telemetry.Start()
	d := quiz.Columns().NewDataset("1.0", n)
	cs := newColSampler(d, models, paperdata.Figure22Main)
	parallel.ForEachWith(workers, parallel.NumShards(n), newBlockScratch,
		func(b *blockScratch, s int) {
			lo, hi := parallel.ShardBounds(s, n)
			t0 := telemetry.Start()
			cs.sampleBlock(b, seed, lo, hi, override)
			telemetry.Done(telemetry.StageSampleBlock, s, t0, int64(s), int64(hi-lo))
			inst.Progress.Add(int64(hi - lo))
		})
	telemetry.Done(telemetry.StageSampleResponses, 0, ts, int64(n), 0)
	return &Population{Cols: d}
}

// modelSpec is one question model before calibration, with the correct
// fraction its offset is bisected to reach.
type modelSpec struct {
	qm     questionModel
	target float64
}

// quizSpecs returns the uncalibrated models of every scored question,
// with targets from Figures 14/15: the core questions first, then the
// optimization questions. A model's position is its response
// sub-stream, so core question k samples on sub-stream k.
func quizSpecs() []modelSpec {
	// The answer key is a table in quiz, shared read-only by every
	// worker.
	var specs []modelSpec
	for i, q := range quiz.CoreQuestions() {
		row := paperdata.Figure14Core[i]
		specs = append(specs, modelSpec{
			qm: questionModel{
				id:      q.ID,
				pUn:     row.Unanswered / 100,
				pDK:     row.DontKnow / 100,
				correct: quiz.KeyAnswer(q.ID),
			},
			target: row.Correct / 100,
		})
	}
	for i, q := range quiz.OptQuestions() {
		row := paperdata.Figure15Opt[i]
		qm := questionModel{
			id:         q.ID,
			pUn:        row.Unanswered / 100,
			pDK:        row.DontKnow / 100,
			correct:    quiz.KeyAnswer(q.ID),
			abilityOpt: true,
		}
		if !q.IsTrueFalse() {
			qm.choiceSet = q.Choices
		}
		specs = append(specs, modelSpec{qm: qm, target: row.Correct / 100})
	}
	return specs
}

// calibrateModels bisects each spec's difficulty offset against the
// calibration cohort's ability distribution: core[i] and opt[i] are
// respondent i's core and optimization abilities. It uses one shared
// ability kernel per ability kind the specs read (the exp(-a) array is
// computed once and reused by every bisection of that kind). Each
// bisection is independent, so a model's offset does not depend on
// which other specs are calibrated alongside it. opt may be nil when no
// spec reads the optimization ability.
func calibrateModels(workers int, core, opt []float64, specs []modelSpec) []questionModel {
	tc := telemetry.Start()
	m := min(len(core), calibrationCap)
	// One kernel per ability kind the specs read, keyed by abilityOpt;
	// a kind no spec reads is not built.
	kernels := map[bool]*abilityKernel{}
	for _, s := range specs {
		if kind := s.qm.abilityOpt; kernels[kind] == nil {
			abil := core
			if kind {
				abil = opt
			}
			kernels[kind] = newAbilityKernel(workers, abil)
		}
	}
	// Calibrate the questions concurrently; each bisection is
	// independent and deterministic.
	// Each worker reuses one weights buffer for all its bisections.
	models := make([]questionModel, len(specs))
	parallel.ForEachWith(workers, len(specs), func() []float64 { return make([]float64, m) },
		func(w []float64, i int) {
			s := specs[i]
			qm := s.qm
			t0 := telemetry.Start()
			qm.offset = kernels[qm.abilityOpt].calibrate(&qm, s.target, w)
			telemetry.Done(telemetry.StageCalibrateQuestion, i, t0, int64(i), 0)
			models[i] = qm
		})
	telemetry.Done(telemetry.StageCalibrate, 0, tc, int64(len(specs)), 0)
	return models
}

// colModel is a questionModel bound to its column: answer strings are
// resolved to codes once at sampler construction, so drawing one answer
// is a couple of RNG calls and a single indexed store.
type colModel struct {
	questionModel
	ci  int
	sub uint64 // sub-stream index within the respondent's response stream
	// unTh = threshold(pUn): a cell's first draw r leaves it unanswered
	// exactly when Float64(r) < pUn, that is when r>>11 < unTh.
	unTh uint64
	// expNegOffset is e^(-offset), the question's factor of the
	// bracketed correctness gate (see correctGate).
	expNegOffset float64
	// True/false codes (choiceSet empty): the correct answer and its
	// flip.
	correctTF uint8
	wrongTF   uint8
	// Single-choice codes (choiceSet nonempty).
	correctCode int32
	dkCode      int32
	csCodes     []int32 // codes of choiceSet, same order
}

// newColModel binds qm to response sub-stream k, with its unanswered
// threshold and e^(-offset) factor; the caller resolves the column.
func newColModel(qm questionModel, k int) colModel {
	return colModel{questionModel: qm, sub: uint64(k), unTh: threshold(qm.pUn), expNegOffset: expNeg(qm.offset)}
}

// sampleInto draws one answer from x, positioned on the cell's own
// (respondent, column) sub-stream, and stores it. The draw sequence per
// cell is: unanswered gate, don't-know gate, correctness gate, then the
// wrong-choice retry loop for choice questions. expNegAbility is
// expNeg(ability), computed once per respondent for every question of
// its kind.
func (m *colModel) sampleInto(d *colstore.Dataset, x parallel.XRand, i int, ability, expNegAbility float64) {
	r, x := x.Next()
	if r>>11 < m.unTh {
		return // columns are zero-initialized: unanswered
	}
	r, x = x.Next()
	if parallel.Float64(r) < m.dkProb(ability) {
		if m.csCodes == nil {
			d.SetTF(m.ci, i, colstore.TFDontKnow)
		} else {
			d.SetSingle(m.ci, i, m.dkCode)
		}
		return
	}
	r, x = x.Next()
	if correctGate(parallel.Float64(r), m.offset, ability, m.expNegOffset, expNegAbility) {
		if m.csCodes == nil {
			d.SetTF(m.ci, i, m.correctTF)
		} else {
			d.SetSingle(m.ci, i, m.correctCode)
		}
		return
	}
	// Incorrect: for T/F flip the answer; for choice pick a wrong
	// option uniformly.
	if m.csCodes == nil {
		d.SetTF(m.ci, i, m.wrongTF)
		return
	}
	for {
		r, x = x.Next()
		k := parallel.Intn(r, len(m.csCodes))
		if m.csCodes[k] != m.correctCode {
			d.SetSingle(m.ci, i, m.csCodes[k])
			return
		}
	}
}

// colSampler writes whole blocks of respondents straight into a
// columnar dataset. Everything string-shaped (question IDs, option
// labels, answer keys) is resolved to column indices and codes at
// construction; the sampling path allocates nothing.
type colSampler struct {
	d  *colstore.Dataset
	bg *bgTables

	models []colModel

	suspCI  []int
	suspSub []uint64
	suspTh  [][4]uint64 // likertThresholds of the Figure 22 rows
}

// newColSampler binds the calibrated question models and the background
// and suspicion questions to d's columns, and assigns every quiz and
// suspicion column its sub-stream index.
func newColSampler(d *colstore.Dataset, models []questionModel, dists []paperdata.SuspicionDist) *colSampler {
	s := d.Schema
	cs := &colSampler{d: d, bg: tables()}
	for k, qm := range models {
		ci := s.MustColumnIndex(qm.id)
		m := newColModel(qm, k)
		m.ci = ci
		if len(qm.choiceSet) == 0 {
			if qm.correct == survey.AnswerTrue {
				m.correctTF, m.wrongTF = colstore.TFTrue, colstore.TFFalse
			} else {
				m.correctTF, m.wrongTF = colstore.TFFalse, colstore.TFTrue
			}
		} else {
			col := s.Column(ci)
			m.correctCode = col.MustOptionCode(qm.correct)
			m.dkCode = col.MustOptionCode(survey.AnswerDontKnow)
			m.csCodes = make([]int32, len(qm.choiceSet))
			for k, c := range qm.choiceSet {
				m.csCodes[k] = col.MustOptionCode(c)
			}
		}
		cs.models = append(cs.models, m)
	}
	for k, it := range quiz.SuspicionItems() {
		cs.suspCI = append(cs.suspCI, s.MustColumnIndex(it.ID))
		cs.suspSub = append(cs.suspSub, uint64(len(models)+k))
		cs.suspTh = append(cs.suspTh, likertThresholds(cumulative(dists[k].Percent)))
	}
	if len(cs.models)+len(cs.suspCI) > 1<<subStreamBits {
		panic("respondent: sub-stream space exhausted; widen subStreamBits")
	}
	return cs
}

// cumulative converts a Likert percentage row to cumulative thresholds.
func cumulative(percent [5]float64) [5]float64 {
	var cum [5]float64
	run := 0.0
	for i, p := range percent {
		run += p
		cum[i] = run
	}
	return cum
}

// blockScratch is one worker's reusable state for sampleBlock: the
// Profile every background of a block is drawn into, and the block's
// two abilities with their e^(-a) factors.
type blockScratch struct {
	p                     Profile
	abil, optAbil         []float64
	expNegAbil, expNegOpt []float64
}

func newBlockScratch() *blockScratch { return &blockScratch{} }

// fit sizes the block-local arrays for m respondents; they grow only on
// a worker's first block.
func (b *blockScratch) fit(m int) {
	if cap(b.abil) < m {
		b.abil, b.optAbil = make([]float64, m), make([]float64, m)
		b.expNegAbil, b.expNegOpt = make([]float64, m), make([]float64, m)
	}
	b.abil, b.optAbil = b.abil[:m], b.optAbil[:m]
	b.expNegAbil, b.expNegOpt = b.expNegAbil[:m], b.expNegOpt[:m]
}

// sampleBlock generates respondents [lo, hi) in one pass. Row-major, it
// draws each background into the worker's Profile (override applied),
// stores its codes and masks, and keeps the two abilities in
// block-local arrays; then it samples quiz answers and suspicion
// answers column-major — one question column across the whole block at
// a time, the cache-friendly orientation. Every respondent and cell
// keeps its own (seed, stream, index) sub-stream, so the bytes do not
// depend on the loop order; each stream's StreamBase is computed once
// per block, and each cell's generator lives in registers from At to
// its last draw. Only elements [lo, hi) of each column are
// touched, so distinct blocks sample concurrently, and once b has
// grown to the block size the whole path performs zero heap
// allocations.
func (cs *colSampler) sampleBlock(b *blockScratch, seed int64, lo, hi int, override func(*Profile)) {
	d, t, p := cs.d, cs.bg, &b.p
	b.fit(hi - lo)
	pb := parallel.StreamBase(seed, streamProfile)
	for i := lo; i < hi; i++ {
		drawProfile(parallel.At(pb, int64(i)), p, override)
		d.SetSingle(t.position.ci, i, t.position.codes[p.idx.position])
		d.SetSingle(t.area.ci, i, t.area.codes[p.idx.area])
		d.SetSingle(t.training.ci, i, t.training.codes[p.idx.training])
		d.SetSingle(t.role.ci, i, t.role.codes[p.idx.role])
		d.SetSingle(t.contribSize.ci, i, t.contribSize.codes[p.idx.contribSize])
		d.SetSingle(t.contribExtent.ci, i, t.contribExtent.codes[p.idx.contribExtent])
		d.SetSingle(t.involvedSize.ci, i, t.involvedSize.codes[p.idx.involvedSize])
		d.SetSingle(t.involvedExtent.ci, i, t.involvedExtent.codes[p.idx.involvedExtent])
		d.SetMultiMask(t.informal.ci, i, p.InformalMask)
		d.SetMultiMask(t.languages.ci, i, p.FPLanguagesMask)
		d.SetMultiMask(t.arbprec.ci, i, p.ArbPrecMask)
		j := i - lo
		b.abil[j], b.expNegAbil[j] = p.Ability, expNeg(p.Ability)
		b.optAbil[j], b.expNegOpt[j] = p.OptAbility, expNeg(p.OptAbility)
	}
	rb := parallel.StreamBase(seed, streamResponse)
	for k := range cs.models {
		m := &cs.models[k]
		abil, en := b.abil, b.expNegAbil
		if m.abilityOpt {
			abil, en = b.optAbil, b.expNegOpt
		}
		for i := lo; i < hi; i++ {
			m.sampleInto(d, parallel.At(rb, int64(i)<<subStreamBits|int64(m.sub)), i, abil[i-lo], en[i-lo])
		}
	}
	for k, ci := range cs.suspCI {
		th := &cs.suspTh[k]
		sub := cs.suspSub[k]
		for i := lo; i < hi; i++ {
			r, _ := parallel.At(rb, int64(i)<<subStreamBits|int64(sub)).Next()
			d.SetLikert(ci, i, likertLevel(r, th))
		}
	}
}

// likertThresholds maps a Likert row's cumulative weights to the four
// integer thresholds of its draw. A draw r was given the first level
// i+1 whose weight exceeds Float64(r)*cum[4], that is
// float64(r>>11)*0x1p-53*cum[4] < cum[i]; t[i] is the least k in
// [0, 2^53] for which that fails, found by binary search on the same
// expression. Rounding is monotone in k, so the test holds exactly for
// k below t[i], and since cum never falls, r is at level 1 plus the
// number of thresholds at or below r>>11.
func likertThresholds(cum [5]float64) [4]uint64 {
	var t [4]uint64
	for i := range t {
		lo, hi := uint64(0), uint64(1)<<53
		for lo < hi {
			mid := lo + (hi-lo)/2
			if float64(mid)*0x1p-53*cum[4] < cum[i] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		t[i] = lo
	}
	return t
}

// likertLevel maps a Likert cell's one draw r to its 1-based level
// through the row's likertThresholds. Each term is the sign bit of
// t[i]-k-1, set exactly when k >= t[i], so no branch depends on the
// draw.
func likertLevel(r uint64, t *[4]uint64) int {
	k := r >> 11
	return int(1 + (t[0]-k-1)>>63 + (t[1]-k-1)>>63 + (t[2]-k-1)>>63 + (t[3]-k-1)>>63)
}

// GenerateStudentsColumnar generates the student cohort directly into
// columns: five Likert stores per respondent, sampled column-major per
// fixed 4096-respondent shard (each traced as a parallel-shard event on
// its worker's lane) with per-(respondent, condition) streams.
func GenerateStudentsColumnar(seed int64, n, workers int, inst Instrumentation) *colstore.Dataset {
	t0 := telemetry.Start()
	d := quiz.Columns().NewDataset("1.0-student", n)
	ss := newStudentSampler(d, seed)
	parallel.MapShards(workers, n, func(lo, hi int) struct{} {
		ss.sampleBlock(lo, hi)
		inst.Progress.Add(int64(hi - lo))
		return struct{}{}
	})
	telemetry.Done(telemetry.StageSampleResponses, 0, t0, int64(n), 0)
	return d
}

// studentSampler writes the student cohort's five suspicion columns
// straight into a dataset, one block of respondents at a time.
type studentSampler struct {
	d  *colstore.Dataset
	sb uint64
	ci []int
	th [][4]uint64
}

func newStudentSampler(d *colstore.Dataset, seed int64) *studentSampler {
	ss := &studentSampler{d: d, sb: parallel.StreamBase(seed, streamStudent)}
	for _, it := range quiz.SuspicionItems() {
		ss.ci = append(ss.ci, d.Schema.MustColumnIndex(it.ID))
	}
	for _, dist := range paperdata.Figure22Student {
		ss.th = append(ss.th, likertThresholds(cumulative(dist.Percent)))
	}
	return ss
}

// sampleBlock draws the suspicion levels of respondents [lo, hi),
// column by column.
func (ss *studentSampler) sampleBlock(lo, hi int) {
	for k, ci := range ss.ci {
		th := &ss.th[k]
		for i := lo; i < hi; i++ {
			r, _ := parallel.At(ss.sb, int64(i)<<subStreamBits|int64(k)).Next()
			ss.d.SetLikert(ci, i, likertLevel(r, th))
		}
	}
}
