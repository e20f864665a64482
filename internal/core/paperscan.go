package core

import (
	"sync"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
)

// The paper plan: Figures 12-22 and the headline claims all read
// integer counts that one block scan of a cohort accumulates. Per
// block, every respondent's 15 core and 4 optimization answers are
// classified exactly once; the counts below follow from those
// outcomes, the factor levels and the suspicion levels. Counts merge
// additively, so the plan is identical at any worker count and between
// in-memory and streamed sources.

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

// paperPlan holds the paper's integer counts over one cohort.
type paperPlan struct {
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
	// likert[i][lv] counts suspicion item i's answers at level lv
	// (0 = unanswered), items in quiz.SuspicionItems order.
	likert [][]int64
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

// newPaperPlan allocates a zero plan; levels[f] is factor f's key
// cardinality and scale the suspicion items' Likert scale.
func newPaperPlan(levels []int, scale int) *paperPlan {
	p := &paperPlan{
		coreQ:   make([][4]int64, len(quiz.CoreQuestions())),
		optQ:    make([][4]int64, len(quiz.OptQuestions())),
		byLevel: make([][][]int64, len(paperFactors)),
		likert:  make([][]int64, len(quiz.SuspicionItems())),
	}
	for o := range p.coreField {
		p.coreField[o] = make([]int64, len(p.coreQ)+1)
		p.optField[o] = make([]int64, optTFQuestions+1)
	}
	for f, pf := range paperFactors {
		p.byLevel[f] = make([][]int64, levels[f])
		for k := range p.byLevel[f] {
			if pf.core {
				p.byLevel[f][k] = make([]int64, len(p.coreQ)+1)
			} else {
				p.byLevel[f][k] = make([]int64, optTFQuestions+1)
			}
		}
	}
	for i := range p.likert {
		p.likert[i] = make([]int64, scale+1)
	}
	return p
}

// add merges o's counts into p.
func (p *paperPlan) add(o *paperPlan) {
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
	for i := range p.likert {
		addCounts(p.likert[i], o.likert[i])
	}
}

func addCounts(dst, src []int64) {
	for k, c := range src {
		dst[k] += c
	}
}

// paperScratch is one block's per-respondent working set: the outcome
// key of the question being classified, and each respondent's four
// core and optimization outcome counts packed one byte per outcome.
type paperScratch struct {
	keys      [query.BlockRows]int32
	core, opt [query.BlockRows]uint32
}

var paperScratchPool = sync.Pool{New: func() any { return new(paperScratch) }}

// scanPaper computes the paper plan of a cohort in one block scan.
func scanPaper(src query.Source, workers int) (*paperPlan, error) {
	s := src.Schema()
	var cols []int
	seen := map[int]bool{}
	bind := func(cs ...int) {
		for _, c := range cs {
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
	}
	coreKeyers := make([]query.Keyer, len(quiz.CoreQuestions()))
	for q := range coreKeyers {
		coreKeyers[q] = quiz.CoreOutcomeKeyer(s, q)
		bind(coreKeyers[q].Columns()...)
	}
	optQs := quiz.OptQuestions()
	optKeyers := make([]query.Keyer, len(optQs))
	for q := range optKeyers {
		optKeyers[q] = quiz.OptOutcomeKeyer(s, q)
		bind(optKeyers[q].Columns()...)
	}
	levelCols := make([]int, len(paperFactors))
	levels := make([]int, len(paperFactors))
	for f, pf := range paperFactors {
		levelCols[f] = s.MustColumnIndex(pf.question)
		levels[f] = query.SingleKey{Options: s.Column(levelCols[f]).Options}.Cardinality()
		bind(levelCols[f])
	}
	items := quiz.SuspicionItems()
	likertCols := make([]int, len(items))
	for i, it := range items {
		likertCols[i] = s.MustColumnIndex(it.ID)
		bind(likertCols[i])
	}
	scale := s.Column(likertCols[0]).Scale

	const correctShift = 8 * int(quiz.OutcomeCorrect)
	parts := make([]*paperPlan, query.NumBlocks(src.Len()))
	err := query.ScanBlocks(src, cols, workers, func(b int, blk *query.Block) {
		p := newPaperPlan(levels, scale)
		sc := paperScratchPool.Get().(*paperScratch)
		defer paperScratchPool.Put(sc)
		keys, core, opt := sc.keys[:blk.N], sc.core[:blk.N], sc.opt[:blk.N]
		clear(core)
		clear(opt)
		for q, k := range coreKeyers {
			k.Keys(blk, keys)
			for j, o := range keys {
				p.coreQ[q][o]++
				core[j] += 1 << (8 * o)
			}
		}
		for q, k := range optKeyers {
			k.Keys(blk, keys)
			tf := optQs[q].IsTrueFalse()
			for j, o := range keys {
				p.optQ[q][o]++
				if tf {
					opt[j] += 1 << (8 * o)
				}
			}
		}
		for f, ci := range levelCols {
			pl, other := p.byLevel[f], int32(levels[f]-1)
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
		for j := range keys {
			for o := range p.coreField {
				p.coreField[o][core[j]>>(8*o)&0xff]++
				p.optField[o][opt[j]>>(8*o)&0xff]++
			}
		}
		for i, ci := range likertCols {
			for _, lv := range blk.U8(ci) {
				p.likert[i][lv]++
			}
		}
		parts[b] = p
	})
	if err != nil {
		return nil, err
	}
	total := newPaperPlan(levels, scale)
	for _, p := range parts {
		total.add(p)
	}
	return total, nil
}

// cohortPlan is a cohort's paper plan, scanned on first use.
type cohortPlan struct {
	once sync.Once
	plan *paperPlan
	err  error
}

func (c *cohortPlan) get(src func() query.Source, workers int) (*paperPlan, error) {
	c.once.Do(func() { c.plan, c.err = scanPaper(src(), workers) })
	return c.plan, c.err
}

// mainPlan returns the main cohort's paper plan.
func (r *Results) mainPlan() (*paperPlan, error) {
	return r.mainScan.get(r.MainSource, r.workers)
}

// studentPlan returns the student cohort's paper plan.
func (r *Results) studentPlan() (*paperPlan, error) {
	return r.studentScan.get(r.StudentSource, r.workers)
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
