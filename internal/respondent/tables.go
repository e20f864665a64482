package respondent

import (
	"fmt"
	"math"
	"sync"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
)

// This file holds the precomputed draw tables for the background phase.
// The per-respondent hot path used to look effects up in maps keyed by
// label strings and re-derive every effect's population mean per
// respondent; bgTables folds all of that into index-addressed arrays
// built once per process, so drawing a background is a table load per
// single-choice question and an integer compare per multi-select
// option, and drawing its abilities is pure array arithmetic.

// choiceTable is one single-choice background question: its paperdata
// marginals resolved against the canonical schema. Entry k of every
// slice describes the k-th table row, so a drawn entry index addresses
// the label, the schema option code, and any per-entry effect directly.
type choiceTable struct {
	ci     int
	labels []string
	codes  []int32
	// pick maps every r in [0, total), where total = len(pick) is the
	// sum of the published counts, to its entry: the first k whose
	// cumulative count exceeds r. One load replaces the search over cumulative counts.
	// Every table has far fewer than 256 entries, so a byte holds one.
	pick    []uint8
	byLabel map[string]int16
}

func newChoiceTable(id string, entries []paperdata.CountEntry) choiceTable {
	s := quiz.Columns()
	ci := s.MustColumnIndex(id)
	col := s.Column(ci)
	t := choiceTable{ci: ci, byLabel: make(map[string]int16, len(entries))}
	for k, e := range entries {
		t.labels = append(t.labels, e.Label)
		t.codes = append(t.codes, col.MustOptionCode(e.Label))
		for range e.N {
			t.pick = append(t.pick, uint8(k))
		}
		t.byLabel[e.Label] = int16(k)
	}
	return t
}

// entry returns the entry index that the draw r selects, distributed by
// the published counts: entry k with probability N_k/total.
func (t *choiceTable) entry(r uint64) int16 {
	return int16(t.pick[parallel.Intn(r, len(t.pick))])
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
// inclusion thresholds and the option bit each entry sets.
type multiTable struct {
	ci int
	// th[k] = threshold(p_k) for entry k's marginal probability p_k: a
	// draw r includes the entry exactly when Float64(r) < p_k, that is
	// when r>>11 < th[k].
	th  []uint64
	bit []uint64
}

func newMultiTable(id string, entries []paperdata.CountEntry, denom int) multiTable {
	s := quiz.Columns()
	ci := s.MustColumnIndex(id)
	col := s.Column(ci)
	t := multiTable{ci: ci}
	for _, e := range entries {
		p := float64(e.N) / float64(denom)
		t.th = append(t.th, threshold(p))
		t.bit = append(t.bit, 1<<uint(col.MustOptionCode(e.Label)-1))
	}
	return t
}

// threshold returns ceil(p·2^53) for a probability p in [0, 1]: a draw
// r has Float64(r) < p exactly when r>>11 < threshold(p). Float64(r) is
// (r>>11)·2^-53 and p·2^53 is exact, so the test compares the integer
// r>>11 with p·2^53, and an integer is below a real exactly when it is
// below the real's ceiling.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * 0x1p53))
}

// mask includes each option independently with its marginal
// probability, one draw of x per option, and returns the resulting
// option bitset and the generator past those draws.
func (t *multiTable) mask(x parallel.XRand) (uint64, parallel.XRand) {
	var mask uint64
	var r uint64
	for k, th := range t.th {
		r, x = x.Next()
		if r>>11 < th {
			mask |= t.bit[k]
		}
	}
	return mask, x
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
