package colstore

import (
	"fmt"
	"math/bits"
	"strconv"

	"fpstudy/internal/survey"
)

// strTable is an arena-style interning table for the rare string
// payloads a column cannot encode as a code: free-text "other" answers
// and verbatim (non-canonical) multi-choice lists. Identical strings
// share one entry. Not safe for concurrent mutation; the hot generation
// path never touches it.
type strTable struct {
	strs []string
	idx  map[string]int32
}

func (t *strTable) intern(s string) int32 {
	if t.idx == nil {
		t.idx = map[string]int32{}
	}
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int32(len(t.strs))
	t.strs = append(t.strs, s)
	t.idx[s] = i
	return i
}

// extra is the spill record for one (column, respondent) cell: string
// table references. For multi-choice cells, verbatim means refs hold
// the entire choices list in original order (the bitset is ignored);
// otherwise refs are free-text additions emitted after the bitset
// options.
type extra struct {
	refs     []int32
	verbatim bool
}

// Dataset is a columnar cohort: one compact code column per question,
// plus a string arena for the payloads codes cannot carry.
type Dataset struct {
	Schema  *Schema
	Version string

	n      int
	tokens []string // nil => auto tokens "r%04d" (i+1), the Anonymize scheme

	u8     [][]uint8       // truefalse + likert columns; nil for other kinds
	code   [][]int32       // single choice
	bits   [][]uint64      // multi choice
	extras []map[int]extra // per column, lazily allocated; sequential only
	strtab strTable

	// nilResponses records a JSON document whose "responses" was null
	// or absent rather than [], so WriteJSON writes it back as null.
	nilResponses bool
}

// NewDataset allocates an n-respondent dataset over the schema with
// every answer unanswered and auto-generated anonymous tokens.
func (s *Schema) NewDataset(version string, n int) *Dataset {
	d := s.emptyDataset(version, n)
	for ci := range s.cols {
		d.allocColumn(ci)
	}
	return d
}

// emptyDataset is NewDataset before any column is allocated.
func (s *Schema) emptyDataset(version string, n int) *Dataset {
	d := &Dataset{Schema: s, Version: version, n: n}
	d.u8 = make([][]uint8, len(s.cols))
	d.code = make([][]int32, len(s.cols))
	d.bits = make([][]uint64, len(s.cols))
	d.extras = make([]map[int]extra, len(s.cols))
	return d
}

// allocColumn allocates column ci's n zeroed codes. Distinct columns
// may be allocated concurrently.
func (d *Dataset) allocColumn(ci int) {
	switch d.Schema.cols[ci].Kind {
	case survey.TrueFalse, survey.Likert:
		d.u8[ci] = make([]uint8, d.n)
	case survey.SingleChoice:
		d.code[ci] = make([]int32, d.n)
	case survey.MultiChoice:
		d.bits[ci] = make([]uint64, d.n)
	}
}

// Len returns the number of respondents.
func (d *Dataset) Len() int { return d.n }

// InternedStrings returns the number of distinct strings in the arena
// (free-text answers and verbatim lists; zero for generated cohorts).
func (d *Dataset) InternedStrings() int { return len(d.strtab.strs) }

// Token returns respondent i's anonymous token.
func (d *Dataset) Token(i int) string {
	if d.tokens != nil {
		return d.tokens[i]
	}
	return string(appendToken(nil, i))
}

// appendToken appends the auto token for respondent i ("r%04d" of i+1,
// the Anonymize scheme) to buf.
func appendToken(buf []byte, i int) []byte {
	buf = append(buf, 'r')
	v := i + 1
	digits := 1
	for p := 10; v >= p && p <= 1000; p *= 10 {
		digits++
	}
	for ; digits < 4; digits++ {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(v), 10)
}

// --- Hot-path writers. All are index-addressed: writing respondent i
// touches only element i, so distinct indices may be written
// concurrently (the shard-splittability contract).

// SetTF stores a truefalse code (TFUnanswered/TFTrue/TFFalse/TFDontKnow).
func (d *Dataset) SetTF(ci, i int, code uint8) { d.u8[ci][i] = code }

// SetLikert stores a 1-based Likert level (0 = unanswered).
func (d *Dataset) SetLikert(ci, i, level int) { d.u8[ci][i] = uint8(level) }

// SetSingle stores a 1-based option code (0 = unanswered).
func (d *Dataset) SetSingle(ci, i int, code int32) { d.code[ci][i] = code }

// SetMultiMask stores a multi-choice bitset (bit j = option j chosen).
func (d *Dataset) SetMultiMask(ci, i int, mask uint64) { d.bits[ci][i] = mask }

// --- Readers.

// TF returns the truefalse code of (column, respondent).
func (d *Dataset) TF(ci, i int) uint8 { return d.u8[ci][i] }

// LikertLevel returns the 1-based level (0 = unanswered).
func (d *Dataset) LikertLevel(ci, i int) int { return int(d.u8[ci][i]) }

// SingleCode returns the single-choice code: 0 unanswered, positive =
// option index+1, negative = free-text reference.
func (d *Dataset) SingleCode(ci, i int) int32 { return d.code[ci][i] }

// SingleLabel resolves a single-choice answer to its label ("" when
// unanswered). Free-text codes resolve through the string arena.
func (d *Dataset) SingleLabel(ci, i int) string {
	c := d.code[ci][i]
	switch {
	case c == 0:
		return ""
	case c > 0:
		return d.Schema.cols[ci].Options[c-1]
	default:
		return d.strtab.strs[-c-1]
	}
}

// --- Raw column views. These expose the dense code slices for
// whole-column scans (the query engine's block kernels). The returned
// slices are the live backing arrays: callers must treat them as
// read-only.

// RawU8 returns the dense code column of a truefalse or Likert
// question (nil for other kinds).
func (d *Dataset) RawU8(ci int) []uint8 { return d.u8[ci] }

// RawI32 returns the dense code column of a single-choice question.
func (d *Dataset) RawI32(ci int) []int32 { return d.code[ci] }

// RawU64 returns the dense bitset column of a multi-choice question.
func (d *Dataset) RawU64(ci int) []uint64 { return d.bits[ci] }

// ArenaStrings returns the string arena (free-text answers and
// verbatim lists; empty for generated cohorts). Read-only.
func (d *Dataset) ArenaStrings() []string { return d.strtab.strs }

// MultiSpill is the exported view of one multi-choice spill record:
// arena references for the cell's free-text additions, or — when
// Verbatim — the entire choices list in original order (the bitset is
// zero and ignored).
type MultiSpill struct {
	Refs     []int32
	Verbatim bool
}

// MultiSpills returns the spill records of one multi-choice column,
// keyed by respondent index (nil when the column has none — always the
// case for generated cohorts).
func (d *Dataset) MultiSpills(ci int) map[int]MultiSpill {
	m := d.extras[ci]
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]MultiSpill, len(m))
	for i, e := range m {
		out[i] = MultiSpill{Refs: e.refs, Verbatim: e.verbatim}
	}
	return out
}

// cellExtra returns the spill record for (column, respondent), if any.
func (d *Dataset) cellExtra(ci, i int) (extra, bool) {
	m := d.extras[ci]
	if m == nil {
		return extra{}, false
	}
	e, ok := m[i]
	return e, ok
}

// MultiUnanswered reports whether a multi-choice cell holds no choices.
func (d *Dataset) MultiUnanswered(ci, i int) bool {
	if d.bits[ci][i] != 0 {
		return false
	}
	_, ok := d.cellExtra(ci, i)
	return !ok
}

// MultiChoices materializes the choice list of a multi-choice cell in
// canonical order (nil when unanswered). The slice is freshly
// allocated; hot paths should use ForEachMultiChoice instead.
func (d *Dataset) MultiChoices(ci, i int) []string {
	var out []string
	d.ForEachMultiChoice(ci, i, func(label string) {
		out = append(out, label)
	})
	return out
}

// ForEachMultiChoice calls fn for every selected choice of a
// multi-choice cell, in stored order, without allocating.
func (d *Dataset) ForEachMultiChoice(ci, i int, fn func(label string)) {
	e, hasExtra := d.cellExtra(ci, i)
	if hasExtra && e.verbatim {
		for _, ref := range e.refs {
			fn(d.strtab.strs[ref])
		}
		return
	}
	c := &d.Schema.cols[ci]
	mask := d.bits[ci][i]
	for mask != 0 {
		j := bits.TrailingZeros64(mask)
		fn(c.Options[j])
		mask &^= 1 << uint(j)
	}
	if hasExtra {
		for _, ref := range e.refs {
			fn(d.strtab.strs[ref])
		}
	}
}

// --- Sequential writers. These may intern strings and allocate spill
// records, so they must not run concurrently.

// setSingleOther stores a free-text single-choice answer.
func (d *Dataset) setSingleOther(ci, i int, text string) {
	d.code[ci][i] = -(d.strtab.intern(text) + 1)
}

// setMultiChoices stores an arbitrary choices list. Lists that are the
// canonical order (declared options in option order, then free text)
// become bitset + refs; anything else is kept verbatim so the list
// reads back exactly as given.
func (d *Dataset) setMultiChoices(ci, i int, choices []string) {
	c := &d.Schema.cols[ci]
	var mask uint64
	var others []string
	canonical := true
	lastOpt := int32(0)
	for _, ch := range choices {
		if code, ok := c.optCode[ch]; ok {
			if len(others) > 0 || code <= lastOpt {
				canonical = false
				break
			}
			lastOpt = code
			mask |= 1 << uint(code-1)
		} else {
			others = append(others, ch)
		}
	}
	if !canonical {
		refs := make([]int32, len(choices))
		for k, ch := range choices {
			refs[k] = d.strtab.intern(ch)
		}
		d.putExtra(ci, i, extra{refs: refs, verbatim: true})
		d.bits[ci][i] = 0
		return
	}
	d.bits[ci][i] = mask
	if len(others) > 0 {
		refs := make([]int32, len(others))
		for k, ch := range others {
			refs[k] = d.strtab.intern(ch)
		}
		d.putExtra(ci, i, extra{refs: refs})
	}
}

func (d *Dataset) putExtra(ci, i int, e extra) {
	if d.extras[ci] == nil {
		d.extras[ci] = map[int]extra{}
	}
	d.extras[ci][i] = e
}

// SetAnswer stores one answer of respondent i into column ci: a
// true/false answer or a listed option as its code, a single-choice
// label outside the option list as free text, a multi-choice list in
// option order as a bitset plus free-text additions and any other list
// verbatim. An empty answer leaves the cell as it is. It rejects an
// answer whose shape does not fit the column kind, a bad true/false
// string and an out-of-range Likert level. SetAnswer may intern
// strings, so it must not run concurrently with other writers.
func (d *Dataset) SetAnswer(ci, i int, a survey.Answer) error {
	if a.IsUnanswered() {
		return nil
	}
	c := &d.Schema.cols[ci]
	shapeErr := func() error {
		return fmt.Errorf("colstore: question %q (%s): answer %+v does not fit the column kind",
			c.ID, c.Kind, a)
	}
	switch c.Kind {
	case survey.TrueFalse:
		if len(a.Choices) != 0 || a.Level != 0 {
			return shapeErr()
		}
		switch a.Choice {
		case survey.AnswerTrue:
			d.u8[ci][i] = TFTrue
		case survey.AnswerFalse:
			d.u8[ci][i] = TFFalse
		case survey.AnswerDontKnow:
			d.u8[ci][i] = TFDontKnow
		default:
			return fmt.Errorf("colstore: question %q: bad truefalse answer %q", c.ID, a.Choice)
		}
	case survey.Likert:
		if len(a.Choices) != 0 || a.Choice != "" {
			return shapeErr()
		}
		if a.Level < 1 || a.Level > c.Scale {
			return fmt.Errorf("colstore: question %q: level %d out of 1..%d", c.ID, a.Level, c.Scale)
		}
		d.u8[ci][i] = uint8(a.Level)
	case survey.SingleChoice:
		if len(a.Choices) != 0 || a.Level != 0 {
			return shapeErr()
		}
		if code, ok := c.optCode[a.Choice]; ok {
			d.code[ci][i] = code
		} else {
			d.setSingleOther(ci, i, a.Choice)
		}
	case survey.MultiChoice:
		if a.Choice != "" || a.Level != 0 {
			return shapeErr()
		}
		d.setMultiChoices(ci, i, a.Choices)
	}
	return nil
}
