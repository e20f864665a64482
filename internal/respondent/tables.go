package respondent

import (
	"fmt"
	"sync"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
)

// This file holds the precomputed draw tables for the background phase.
// The per-respondent hot path used to look effects up in maps keyed by
// label strings and re-derive every effect's population mean per
// respondent; bgTables folds all of that into index-addressed arrays
// built once per process, so drawing a background is a handful of
// cumulative-threshold scans and drawing its abilities is pure array
// arithmetic.

// choiceTable is one single-choice background question: its paperdata
// marginals resolved against the canonical schema. Entry k of every
// slice describes the k-th table row, so a drawn entry index addresses
// the label, the schema option code, and any per-entry effect directly.
type choiceTable struct {
	ci      int
	labels  []string
	codes   []int32
	cum     []int // cumulative counts; draw r in [0,total) → first k with r < cum[k]
	total   int
	byLabel map[string]int16
}

func newChoiceTable(id string, entries []paperdata.CountEntry) choiceTable {
	s := quiz.Columns()
	ci := s.MustColumnIndex(id)
	col := s.Column(ci)
	t := choiceTable{ci: ci, byLabel: make(map[string]int16, len(entries))}
	run := 0
	for k, e := range entries {
		run += e.N
		t.labels = append(t.labels, e.Label)
		t.codes = append(t.codes, col.MustOptionCode(e.Label))
		t.cum = append(t.cum, run)
		t.byLabel[e.Label] = int16(k)
	}
	t.total = run
	return t
}

// draw returns an entry index distributed by the published counts.
func (t *choiceTable) draw(rng *parallel.XRand) int16 {
	r := rng.Intn(t.total)
	for k, c := range t.cum {
		if r < c {
			return int16(k)
		}
	}
	return int16(len(t.cum) - 1)
}

// reindex points *k at label's entry index. It keeps *k when that
// entry's label still equals label, and otherwise resolves the label
// through the map — the override slow path.
func (t *choiceTable) reindex(id, label string, k *int16) {
	if t.labels[*k] == label {
		return
	}
	i, ok := t.byLabel[label]
	if !ok {
		panic(fmt.Sprintf("respondent: override set %s to %q, not an option of that question", id, label))
	}
	*k = i
}

// multiTable is one multi-choice background question: per-entry
// inclusion probabilities and the option bit each entry sets.
type multiTable struct {
	ci  int
	p   []float64
	bit []uint64
}

func newMultiTable(id string, entries []paperdata.CountEntry, denom int) multiTable {
	s := quiz.Columns()
	ci := s.MustColumnIndex(id)
	col := s.Column(ci)
	t := multiTable{ci: ci}
	for _, e := range entries {
		t.p = append(t.p, float64(e.N)/float64(denom))
		t.bit = append(t.bit, 1<<uint(col.MustOptionCode(e.Label)-1))
	}
	return t
}

// draw includes each option independently with its marginal probability
// and returns the resulting option bitset.
func (t *multiTable) draw(rng *parallel.XRand) uint64 {
	var mask uint64
	for k, p := range t.p {
		if rng.Float64() < p {
			mask |= t.bit[k]
		}
	}
	return mask
}

// bgTables bundles every background question's draw table with the
// ability model's per-entry centered effects.
type bgTables struct {
	position, area, training, role choiceTable
	contribSize, contribExtent     choiceTable
	involvedSize, involvedExtent   choiceTable
	informal, languages, arbprec   multiTable

	// Centered effects (score points), aligned with the owning
	// choiceTable's entries.
	contribEff, areaEff, roleEff, trainingEff []float64
	optAreaEff, optRoleEff                    []float64

	// Correctness-focus flags per extent entry.
	correctnessContrib, correctnessInvolved []bool
}

var (
	bgOnce sync.Once
	bgTab  *bgTables
)

// tables returns the process-wide background tables, built on first
// use against the canonical schema and the published marginals.
func tables() *bgTables {
	bgOnce.Do(func() {
		t := &bgTables{
			position:       newChoiceTable(quiz.BGPosition, paperdata.Figure1Positions),
			area:           newChoiceTable(quiz.BGArea, paperdata.Figure2Areas),
			training:       newChoiceTable(quiz.BGFormalTraining, paperdata.Figure3FormalTraining),
			role:           newChoiceTable(quiz.BGRole, paperdata.Figure5Roles),
			contribSize:    newChoiceTable(quiz.BGContribSize, paperdata.Figure8ContribSize),
			contribExtent:  newChoiceTable(quiz.BGContribExtent, paperdata.Figure9ContribExtent),
			involvedSize:   newChoiceTable(quiz.BGInvolvedSize, paperdata.Figure10InvolvedSize),
			involvedExtent: newChoiceTable(quiz.BGInvolvedExtent, paperdata.Figure11InvolvedExtent),
			informal:       newMultiTable(quiz.BGInformal, paperdata.Figure4InformalTraining, paperdata.NMain),
			languages:      newMultiTable(quiz.BGFPLanguages, paperdata.Figure6FPLanguages, paperdata.NMain),
			arbprec:        newMultiTable(quiz.BGArbPrec, paperdata.Figure7ArbPrec, paperdata.NMain),
		}
		centered := func(effects map[string]float64, def float64, marginals []paperdata.CountEntry) []float64 {
			out := make([]float64, len(marginals))
			for k, e := range marginals {
				out[k] = centeredEffect(effects, def, e.Label, marginals)
			}
			return out
		}
		t.contribEff = centered(contribSizeEffect, 0, paperdata.Figure8ContribSize)
		t.areaEff = centered(areaEffect, areaEffectDefault, paperdata.Figure2Areas)
		t.roleEff = centered(roleEffect, 0, paperdata.Figure5Roles)
		t.trainingEff = centered(trainingEffect, 0, paperdata.Figure3FormalTraining)
		t.optAreaEff = centered(optAreaEffect, optAreaEffectDefault, paperdata.Figure2Areas)
		t.optRoleEff = centered(optRoleEffect, 0, paperdata.Figure5Roles)
		flags := func(marginals []paperdata.CountEntry) []bool {
			out := make([]bool, len(marginals))
			for k, e := range marginals {
				out[k] = isCorrectnessFocused(e.Label)
			}
			return out
		}
		t.correctnessContrib = flags(paperdata.Figure9ContribExtent)
		t.correctnessInvolved = flags(paperdata.Figure11InvolvedExtent)
		bgTab = t
	})
	return bgTab
}
