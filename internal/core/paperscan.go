package core

import (
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/stats"
	"fpstudy/internal/survey"
)

// The paper plan: all 22 figures and the headline claims read integer
// counts that one block scan of a cohort accumulates. Per block, every
// respondent's 15 core and 4 optimization answers are classified
// exactly once, through per-question code tables; the counts below
// follow from those outcomes, the background answers, the factor
// levels and the suspicion levels. The student cohort's plan binds
// only the suspicion items, the one thing Figure 22 and the claims
// read from it. Counts merge additively, so the plan is identical at
// any worker count and between in-memory and streamed sources.

// paperFactor is one background question whose levels split a quiz
// score: Figures 16-21 and the codebase-size and PhysSci claims.
type paperFactor struct {
	question string
	// core selects the core score (0-15); otherwise the score over the
	// three T/F optimization questions (0-3).
	core bool
}

// paperFactors lists the factor splits, indexed by the factor*
// constants below.
var paperFactors = []paperFactor{
	{quiz.BGContribSize, true},
	{quiz.BGArea, true},
	{quiz.BGRole, true},
	{quiz.BGFormalTraining, true},
	{quiz.BGArea, false},
	{quiz.BGRole, false},
}

const (
	factorContribSizeCore = iota
	factorAreaCore
	factorRoleCore
	factorTrainingCore
	factorAreaOpt
	factorRoleOpt
)

// paperPlan holds the paper's integer counts over one cohort. A
// suspicion-only plan (the student cohort's) fills n and likert alone.
type paperPlan struct {
	// n is the number of respondents scanned.
	n int64
	// coreQ[q][o] counts respondents with outcome o
	// (quiz.PerQuestionOutcome) on core question q, paper order; optQ
	// likewise for the four optimization questions.
	coreQ, optQ [][4]int64
	// coreField[o][k] counts respondents with exactly k outcomes o over
	// the 15 core questions; optField over the three T/F optimization
	// questions (the Figure 12 view).
	coreField, optField [4][]int64
	// byLevel[f][key][score] counts respondents by factor f's answer
	// (query.SingleKey keys: 0 unanswered, 1..k the options, k+1 free
	// text) and quiz score.
	byLevel [][][]int64
	// bg[i] counts the answers to background question i
	// (backgroundFigures order): slot 0 unanswered, slot k option k. A
	// multi-choice respondent counts once per selected option; one
	// whose answer is only spilled text is not unanswered.
	bg [][]int64
	// bgText[i] counts question i's free-text labels by ref into the
	// cohort's arena: single-choice write-ins and every ref of a
	// multi-choice spill.
	bgText []map[int32]int64
	// likert[i][lv] counts suspicion item i's answers at level lv
	// (0 = unanswered), items in quiz.SuspicionItems order.
	likert [][]int64
}

// planShape sizes a plan's counts. A shape without quiz counts is the
// suspicion-only plan.
type planShape struct {
	quiz bool
	// levels[f] is factor f's key cardinality; bgSlots[i] background
	// question i's slot count.
	levels, bgSlots []int
	// scale is the suspicion items' Likert scale.
	scale int
}

// optTFQuestions is the number of T/F optimization questions.
var optTFQuestions = func() int {
	n := 0
	for _, q := range quiz.OptQuestions() {
		if q.IsTrueFalse() {
			n++
		}
	}
	return n
}()

// newPaperPlan allocates a zero plan of the given shape.
func newPaperPlan(sh planShape) *paperPlan {
	p := &paperPlan{likert: make([][]int64, len(quiz.SuspicionItems()))}
	for i := range p.likert {
		p.likert[i] = make([]int64, sh.scale+1)
	}
	if !sh.quiz {
		return p
	}
	p.coreQ = make([][4]int64, len(quiz.CoreQuestions()))
	p.optQ = make([][4]int64, len(quiz.OptQuestions()))
	for o := range p.coreField {
		p.coreField[o] = make([]int64, len(p.coreQ)+1)
		p.optField[o] = make([]int64, optTFQuestions+1)
	}
	p.byLevel = make([][][]int64, len(paperFactors))
	for f, pf := range paperFactors {
		p.byLevel[f] = make([][]int64, sh.levels[f])
		for k := range p.byLevel[f] {
			if pf.core {
				p.byLevel[f][k] = make([]int64, len(p.coreQ)+1)
			} else {
				p.byLevel[f][k] = make([]int64, optTFQuestions+1)
			}
		}
	}
	p.bg = make([][]int64, len(sh.bgSlots))
	p.bgText = make([]map[int32]int64, len(sh.bgSlots))
	for i, k := range sh.bgSlots {
		p.bg[i] = make([]int64, k)
	}
	return p
}

// add merges o's counts into p.
func (p *paperPlan) add(o *paperPlan) {
	p.n += o.n
	for q := range p.coreQ {
		for k := range p.coreQ[q] {
			p.coreQ[q][k] += o.coreQ[q][k]
		}
	}
	for q := range p.optQ {
		for k := range p.optQ[q] {
			p.optQ[q][k] += o.optQ[q][k]
		}
	}
	for f := range p.coreField {
		addCounts(p.coreField[f], o.coreField[f])
		addCounts(p.optField[f], o.optField[f])
	}
	for f := range p.byLevel {
		for k := range p.byLevel[f] {
			addCounts(p.byLevel[f][k], o.byLevel[f][k])
		}
	}
	for i := range p.bg {
		addCounts(p.bg[i], o.bg[i])
		for ref, c := range o.bgText[i] {
			p.addText(i, ref, c)
		}
	}
	for i := range p.likert {
		addCounts(p.likert[i], o.likert[i])
	}
}

// addText counts c more answers to background question i with the
// free-text label at arena ref.
func (p *paperPlan) addText(i int, ref int32, c int64) {
	if p.bgText[i] == nil {
		p.bgText[i] = map[int32]int64{}
	}
	p.bgText[i][ref] += c
}

func addCounts(dst, src []int64) {
	for k, c := range src {
		dst[k] += c
	}
}

// A block's counts accumulate in 16-bit lanes of a uint64 (four per
// word) before they are added to the plan. A lane counts at most one
// block's rows, so the lanes are exact while a block fits in 16 bits;
// this constant fails to compile otherwise.
const _ uint16 = query.BlockRows

// lanes16 returns the four 16-bit lanes of w.
func lanes16(w uint64) [4]int64 {
	return [4]int64{int64(w & 0xffff), int64(w >> 16 & 0xffff), int64(w >> 32 & 0xffff), int64(w >> 48)}
}

// levelLanes[w][lv] adds one to Likert level lv's lane: lane lv%4 of
// word lv/4, for levels 0-7.
var levelLanes = func() (t [2][256]uint64) {
	for lv := 0; lv < 8; lv++ {
		t[lv/4][lv] = 1 << (16 * (lv % 4))
	}
	return t
}()

// spread[b] holds bit i of b in byte lane i: adding spread[byte(mask)]
// counts the first eight options of a multi-choice mask at once. A
// byte lane holds 255, so the sums flush every 255 rows.
var spread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[b] |= 1 << (8 * i)
			}
		}
	}
	return t
}()

// tfKernel counts one T/F question: lut8[code] adds one to the outcome's
// byte lane of a respondent's packed outcome counts, lut16[code] to the
// outcome's 16-bit lane of the block's per-question histogram.
type tfKernel struct {
	q, col int
	lut8   [256]uint32
	lut16  [256]uint64
}

func newTFKernel(q int, t *quiz.OutcomeTable) tfKernel {
	k := tfKernel{q: q, col: t.Col}
	for code, o := range t.ByCode {
		k.lut8[code] = 1 << (8 * o)
		k.lut16[code] = 1 << (16 * o)
	}
	return k
}

// count adds the question's outcome to every respondent's packed counts
// and returns the block's outcome histogram.
func (k *tfKernel) count(blk *query.Block, packed []uint32) [4]int64 {
	col := blk.U8(k.col)[:len(packed)]
	var acc uint64
	for j, code := range col {
		packed[j] += k.lut8[code]
		acc += k.lut16[code]
	}
	return lanes16(acc)
}

// countLevels adds the Likert level counts of col to counts (level lv
// at counts[lv]).
func countLevels(col []uint8, counts []int64) {
	var lo, hi uint64
	for _, lv := range col {
		lo += levelLanes[0][lv]
		hi += levelLanes[1][lv]
	}
	for lv, c := range lanes16(lo) {
		if lv < len(counts) {
			counts[lv] += c
		}
	}
	for lv, c := range lanes16(hi) {
		if 4+lv < len(counts) {
			counts[4+lv] += c
		}
	}
}

// countMulti adds each option's selections in masks to counts (the
// option of bit k at counts[k]) and returns the number of empty masks.
func countMulti(masks []uint64, counts []int64) (empty int64) {
	for _, m := range masks {
		if m == 0 {
			empty++
		}
	}
	for shift := 0; shift < len(counts); shift += 8 {
		for lo := 0; lo < len(masks); lo += 255 {
			var acc uint64
			for _, m := range masks[lo:min(lo+255, len(masks))] {
				acc += spread[byte(m>>shift)]
			}
			for i := 0; i < 8 && shift+i < len(counts); i++ {
				counts[shift+i] += int64(acc >> (8 * i) & 0xff)
			}
		}
	}
	return empty
}

// marginalize adds a joint histogram of rows by their (correct,
// incorrect, don't know) counts, bits wide each, to the per-outcome
// histograms of field, and clears it; every row answers q questions,
// so the rest are unanswered.
func marginalize(joint []int32, bits, q int, field *[4][]int64) {
	mask := 1<<bits - 1
	for idx, c := range joint {
		if c == 0 {
			continue
		}
		joint[idx] = 0
		cor, inc, dk := idx&mask, idx>>bits&mask, idx>>(2*bits)&mask
		field[quiz.OutcomeCorrect][cor] += int64(c)
		field[quiz.OutcomeIncorrect][inc] += int64(c)
		field[quiz.OutcomeDontKnow][dk] += int64(c)
		field[quiz.OutcomeUnanswered][q-cor-inc-dk] += int64(c)
	}
}

// bgColumn is one background question's column.
type bgColumn struct {
	col   int
	multi bool
	// spills are a multi-choice column's spill records (nil when none).
	spills map[int]colstore.MultiSpill
}

// paperScan is one scan's bound columns and lookup tables, built once
// per scan and read by every worker.
type paperScan struct {
	shape planShape
	cols  []int
	// core and opt classify the core and the T/F optimization
	// questions; level is the Standard-compliant Level question, the
	// optimization question at index levelQ.
	core, opt []tfKernel
	level     quiz.OutcomeTable
	levelQ    int
	// factorCols[f] is factor f's column.
	factorCols []int
	bg         []bgColumn
	likertCols []int
}

// newPaperScan binds the columns of a cohort's plan; withQuiz false
// binds the suspicion items alone.
func newPaperScan(src query.Source, withQuiz bool) *paperScan {
	s := src.Schema()
	ps := &paperScan{shape: planShape{quiz: withQuiz}}
	seen := map[int]bool{}
	bind := func(c int) {
		if !seen[c] {
			seen[c] = true
			ps.cols = append(ps.cols, c)
		}
	}
	if withQuiz {
		coreTabs, optTabs := quiz.OutcomeTables(s)
		for q := range coreTabs {
			ps.core = append(ps.core, newTFKernel(q, &coreTabs[q]))
			bind(coreTabs[q].Col)
		}
		for q := range optTabs {
			if optTabs[q].TF {
				ps.opt = append(ps.opt, newTFKernel(q, &optTabs[q]))
			} else {
				ps.level, ps.levelQ = optTabs[q], q
			}
			bind(optTabs[q].Col)
		}
		// The joint field histograms hold four bits per core count and
		// two per optimization count.
		if len(ps.core) > 15 || len(ps.opt) > 3 {
			panic("core: quiz too long for the joint field histograms")
		}
		for _, pf := range paperFactors {
			ci := s.MustColumnIndex(pf.question)
			ps.factorCols = append(ps.factorCols, ci)
			ps.shape.levels = append(ps.shape.levels,
				query.SingleKey{Options: s.Column(ci).Options}.Cardinality())
			bind(ci)
		}
		for _, bf := range backgroundFigures {
			ci := s.MustColumnIndex(bf.question)
			c := s.Column(ci)
			bc := bgColumn{col: ci, multi: c.Kind == survey.MultiChoice}
			if bc.multi {
				bc.spills = src.MultiSpills(ci)
			}
			ps.bg = append(ps.bg, bc)
			ps.shape.bgSlots = append(ps.shape.bgSlots, len(c.Options)+1)
			bind(ci)
		}
	}
	for _, it := range quiz.SuspicionItems() {
		ci := s.MustColumnIndex(it.ID)
		ps.likertCols = append(ps.likertCols, ci)
		bind(ci)
	}
	ps.shape.scale = s.Column(ps.likertCols[0]).Scale
	return ps
}

// paperScratch is one block's per-respondent working set: each
// respondent's four core and optimization outcome counts packed one
// byte per outcome.
type paperScratch struct {
	core, opt [query.BlockRows]uint32
	// coreJoint and optJoint count rows by their correct, incorrect
	// and don't-know counts (outcomes 0-2, the low three bytes of core
	// and opt), four bits each for the core quiz and two for the
	// optimization quiz; marginalize folds them into the fields.
	coreJoint [1 << 12]int32
	optJoint  [1 << 6]int32
}

var paperScratchPool = sync.Pool{New: func() any { return new(paperScratch) }}

// block counts one block into p.
func (ps *paperScan) block(blk *query.Block, p *paperPlan) {
	p.n = int64(blk.N)
	for i, ci := range ps.likertCols {
		countLevels(blk.U8(ci)[:blk.N], p.likert[i])
	}
	if !ps.shape.quiz {
		return
	}
	sc := paperScratchPool.Get().(*paperScratch)
	defer paperScratchPool.Put(sc)
	core, opt := sc.core[:blk.N], sc.opt[:blk.N]
	clear(core)
	clear(opt)
	for i := range ps.core {
		k := &ps.core[i]
		p.coreQ[k.q] = k.count(blk, core)
	}
	for i := range ps.opt {
		k := &ps.opt[i]
		p.optQ[k.q] = k.count(blk, opt)
	}
	for _, code := range blk.I32(ps.level.Col) {
		p.optQ[ps.levelQ][ps.level.Outcome(code)]++
	}

	const correctShift = 8 * int(quiz.OutcomeCorrect)
	for f, ci := range ps.factorCols {
		pl, other := p.byLevel[f], int32(len(p.byLevel[f])-1)
		packed := core
		if !paperFactors[f].core {
			packed = opt
		}
		for j, key := range blk.I32(ci) {
			if key < 0 {
				key = other
			}
			pl[key][packed[j]>>correctShift&0xff]++
		}
	}
	for j := range core {
		c, o := core[j], opt[j]
		sc.coreJoint[c&0xf|c>>4&0xf0|c>>8&0xf00]++
		sc.optJoint[o&0x3|o>>6&0xc|o>>12&0x30]++
	}
	marginalize(sc.coreJoint[:], 4, len(ps.core), &p.coreField)
	marginalize(sc.optJoint[:], 2, len(ps.opt), &p.optField)

	for i, bc := range ps.bg {
		counts := p.bg[i]
		if bc.multi {
			masks := blk.U64(bc.col)
			empty := countMulti(masks, counts[1:])
			// A spilled answer's raw mask may be empty; it is answered.
			if bc.spills != nil {
				for j, m := range masks {
					if m != 0 {
						continue
					}
					if _, ok := bc.spills[blk.Lo+j]; ok {
						empty--
					}
				}
			}
			counts[0] += empty
			continue
		}
		for _, code := range blk.I32(bc.col) {
			if code >= 0 {
				counts[code]++
			} else {
				p.addText(i, -code-1, 1)
			}
		}
	}
}

// scan computes the plan of a cohort in one block scan.
func (ps *paperScan) scan(src query.Source, workers int) (*paperPlan, error) {
	parts := make([]*paperPlan, query.NumBlocks(src.Len()))
	err := query.ScanBlocks(src, ps.cols, workers, func(b int, blk *query.Block) {
		p := newPaperPlan(ps.shape)
		ps.block(blk, p)
		parts[b] = p
	})
	if err != nil {
		return nil, err
	}
	total := newPaperPlan(ps.shape)
	for _, p := range parts {
		total.add(p)
	}
	// Multi-choice spill refs: free-text additions and the whole label
	// list of verbatim answers, counted once per ref.
	for i, bc := range ps.bg {
		for _, sp := range bc.spills {
			for _, ref := range sp.Refs {
				total.addText(i, ref, 1)
			}
		}
	}
	return total, nil
}

// scanPaper computes the main cohort's plan: every count the paper
// reads.
func scanPaper(src query.Source, workers int) (*paperPlan, error) {
	return newPaperScan(src, true).scan(src, workers)
}

// scanSuspicion computes the student cohort's plan: the suspicion
// items' counts alone.
func scanSuspicion(src query.Source, workers int) (*paperPlan, error) {
	return newPaperScan(src, false).scan(src, workers)
}

// cohortPlan is a cohort's paper plan, scanned on first use.
type cohortPlan struct {
	once sync.Once
	plan *paperPlan
	err  error
}

func (c *cohortPlan) get(scan func(query.Source, int) (*paperPlan, error), src func() query.Source, workers int) (*paperPlan, error) {
	c.once.Do(func() { c.plan, c.err = scan(src(), workers) })
	return c.plan, c.err
}

// mainPlan returns the main cohort's paper plan.
func (r *Results) mainPlan() (*paperPlan, error) {
	return r.mainScan.get(scanPaper, r.MainSource, r.workers)
}

// studentPlan returns the student cohort's suspicion-only plan.
func (r *Results) studentPlan() (*paperPlan, error) {
	return r.studentScan.get(scanSuspicion, r.StudentSource, r.workers)
}

// figurePlan returns a cohort's plan for a figure to render, or nil
// after noting on t why the figure has no rows: a failed scan or an
// empty cohort.
func figurePlan(t *report.Table, plan func() (*paperPlan, error)) *paperPlan {
	p, err := plan()
	switch {
	case err != nil:
		t.Notes = append(t.Notes, err.Error())
		return nil
	case p.n == 0:
		t.Notes = append(t.Notes, noRespondents)
		return nil
	}
	return p
}

// meanOutcomes returns the mean per-outcome counts of a quiz field
// (coreField or optField). The means divide exact integer sums, so
// they are bit-identical to averaging the graded tallies row by row.
func meanOutcomes(field [4][]int64) meanTallyResult {
	mean := func(o quiz.PerQuestionOutcome) float64 { return stats.SummarizeCounts(field[o]).Mean }
	return meanTallyResult{
		Correct:    mean(quiz.OutcomeCorrect),
		Incorrect:  mean(quiz.OutcomeIncorrect),
		DontKnow:   mean(quiz.OutcomeDontKnow),
		Unanswered: mean(quiz.OutcomeUnanswered),
	}
}

// background returns background question i's answer counts by label
// for the plan of src: "unanswered", each option and each free-text
// label. Counts merge by label, so a typed label equal to an option
// adds to that option.
func (p *paperPlan) background(src query.Source, i int) map[string]int {
	s, arena := src.Schema(), src.ArenaStrings()
	c := s.Column(s.MustColumnIndex(backgroundFigures[i].question))
	tal := map[string]int{}
	for slot, n := range p.bg[i] {
		if n == 0 {
			continue
		}
		label := "unanswered"
		if slot > 0 {
			label = c.Options[slot-1]
		}
		tal[label] += int(n)
	}
	for ref, n := range p.bgText[i] {
		tal[arena[ref]] += int(n)
	}
	return tal
}

// levelScores returns factor f's score histogram for the respondents
// whose answer is one of the given level labels ("(unanswered)" names
// the unanswered key); an unknown label contributes nothing.
func (p *paperPlan) levelScores(s *colstore.Schema, f int, labels ...string) []int64 {
	col := s.Column(s.MustColumnIndex(paperFactors[f].question))
	out := make([]int64, len(p.byLevel[f][0]))
	for _, l := range labels {
		key := 0
		if l != "(unanswered)" {
			code, ok := col.OptionCode(l)
			if !ok {
				continue
			}
			key = int(code)
		}
		addCounts(out, p.byLevel[f][key])
	}
	return out
}

// suspicion returns the Likert distribution of the suspicion item with
// the given ID.
func (p *paperPlan) suspicion(itemID string) stats.LikertDist {
	for i, it := range quiz.SuspicionItems() {
		if it.ID == itemID {
			return stats.LikertDistFromCounts(p.likert[i][1:], len(p.likert[i])-1)
		}
	}
	panic("core: unknown suspicion item " + itemID)
}
