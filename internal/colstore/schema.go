// Package colstore is the one representation of survey datasets in
// this repository: a structure-of-arrays layout in which question IDs
// are interned once into dense column indices and answers are stored as
// compact per-question code columns. Generation writes it, both file
// codecs (row-shaped JSON and the FPDS binary) read and write it, and
// grading, the query engine, the figures and the command-line tools
// read it.
//
// # Why columns
//
// A dataset held as one answer map per respondent costs one map
// allocation plus ~30 string-hash insertions per respondent: at n=1M
// that is gigabytes of short-lived garbage. The columnar layout stores
// one contiguous slice per question:
//
//	true/false   []uint8   0=unanswered 1=true 2=false 3=don't know
//	likert       []uint8   0=unanswered, else the 1-based level
//	single       []int32   0=unanswered, 1..k = option index+1,
//	                       negative = free text ("other") reference
//	multi        []uint64  bitset over the option list (bit j =
//	                       option j selected); free-text additions and
//	                       non-canonical lists spill to a side table
//
// so the per-respondent write path is a handful of indexed stores with
// zero allocations, and whole-cohort scans (grading, figure tallies,
// validation, CSV export) are linear walks over dense arrays.
//
// # Determinism and sharding contract
//
// All per-respondent state is index-addressed: writing respondent i
// touches only element i of each column, so columns are shard-splittable
// exactly like the per-index RNG streams in internal/parallel — any
// partition of [0, n) across workers produces the same dataset.
// The spill paths (free text, verbatim choice lists) are NOT safe for
// concurrent use and are reserved for sequential writers (DecodeJSON,
// SetAnswer); generated cohorts never take them.
//
// # Fidelity contract
//
// WriteJSON emits the row-shaped JSON document: the instrument title,
// the version, and one {"token", "answers"} object per respondent with
// its answered questions in sorted ID order, indented as
// encoding/json's MarshalIndent with two spaces indents it. DecodeJSON
// reads that document back, and WriteJSON of the result reproduces the
// input byte for byte, with one documented normalization: an
// explicitly-present-but-empty answer ("id": {}) is stored as
// unanswered and so is not written again. A single-choice label outside
// the option list and a multi-choice list that is not in option order
// are kept exactly as given. The FPDS codec carries every column, the
// string arena and the tokens, so a dataset survives any chain of the
// two codecs unchanged.
package colstore

import (
	"encoding/json"
	"fmt"

	"fpstudy/internal/survey"
)

// True/false and don't-know codes for truefalse columns.
const (
	TFUnanswered uint8 = 0
	TFTrue       uint8 = 1
	TFFalse      uint8 = 2
	TFDontKnow   uint8 = 3
)

// MaxMultiOptions is the option-list bound for multi-choice columns:
// one bitset word per respondent.
const MaxMultiOptions = 64

// Col is one interned question: its identity, kind, and the option
// code table.
type Col struct {
	ID   string
	Kind survey.Kind
	// Options lists the declared options of single/multi questions, in
	// instrument order. Option j has code int32(j+1) (single) or bit j
	// (multi).
	Options []string
	// Scale is the Likert bound (1..Scale).
	Scale      int
	AllowOther bool

	optCode map[string]int32 // option label -> 1-based code
	// jsonID and jsonOptions are the JSON-encoded (escaped, quoted)
	// forms, precomputed so serialization is a pure buffer append.
	jsonID      []byte
	jsonOptions [][]byte
}

// OptionCode returns the 1-based code of an option label.
func (c *Col) OptionCode(label string) (int32, bool) {
	v, ok := c.optCode[label]
	return v, ok
}

// MustOptionCode returns the 1-based code of a declared option and
// panics if the label is not in the column's option list. Generation
// uses it for labels that come from the same tables the instrument's
// option lists are built from.
func (c *Col) MustOptionCode(label string) int32 {
	v, ok := c.optCode[label]
	if !ok {
		panic(fmt.Sprintf("colstore: column %q has no option %q", c.ID, label))
	}
	return v
}

// Schema is an interned survey instrument: question IDs mapped to dense
// column indices, with per-column option code tables. Build one per
// instrument (NewSchema) and share it read-only; all methods are safe
// for concurrent use after construction.
type Schema struct {
	Title string
	cols  []Col
	byID  map[string]int
	// emitOrder is the column order used for JSON serialization:
	// sorted by question ID, matching encoding/json's sorted map keys.
	emitOrder []int
}

// NewSchema interns an instrument. It fails on multi-choice questions
// with more than MaxMultiOptions options (no such instrument exists in
// this repository) and Likert scales beyond 255.
func NewSchema(ins *survey.Instrument) (*Schema, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	s := &Schema{Title: ins.Title, byID: map[string]int{}}
	for _, q := range ins.Questions() {
		switch q.Kind {
		case survey.MultiChoice:
			if len(q.Options) > MaxMultiOptions {
				return nil, fmt.Errorf("colstore: question %q has %d options (max %d)",
					q.ID, len(q.Options), MaxMultiOptions)
			}
		case survey.Likert:
			if q.Scale > 255 {
				return nil, fmt.Errorf("colstore: question %q scale %d exceeds 255", q.ID, q.Scale)
			}
		}
		c := Col{
			ID:         q.ID,
			Kind:       q.Kind,
			Options:    q.Options,
			Scale:      q.Scale,
			AllowOther: q.AllowOther,
			optCode:    make(map[string]int32, len(q.Options)),
			jsonID:     mustJSON(q.ID),
		}
		for j, o := range q.Options {
			c.optCode[o] = int32(j + 1)
			c.jsonOptions = append(c.jsonOptions, mustJSON(o))
		}
		s.byID[q.ID] = len(s.cols)
		s.cols = append(s.cols, c)
	}
	s.emitOrder = make([]int, len(s.cols))
	for i := range s.emitOrder {
		s.emitOrder[i] = i
	}
	// Insertion sort by ID; the instrument has a few dozen questions.
	for i := 1; i < len(s.emitOrder); i++ {
		for j := i; j > 0 && s.cols[s.emitOrder[j]].ID < s.cols[s.emitOrder[j-1]].ID; j-- {
			s.emitOrder[j], s.emitOrder[j-1] = s.emitOrder[j-1], s.emitOrder[j]
		}
	}
	return s, nil
}

// MustSchema is NewSchema for instruments known valid at build time.
func MustSchema(ins *survey.Instrument) *Schema {
	s, err := NewSchema(ins)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of interned questions.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the interned column ci.
func (s *Schema) Column(ci int) *Col { return &s.cols[ci] }

// ColumnIndex returns the dense index of a question ID.
func (s *Schema) ColumnIndex(id string) (int, bool) {
	ci, ok := s.byID[id]
	return ci, ok
}

// MustColumnIndex returns the dense index of a question ID known to be
// in the schema.
func (s *Schema) MustColumnIndex(id string) int {
	ci, ok := s.byID[id]
	if !ok {
		panic(fmt.Sprintf("colstore: schema has no question %q", id))
	}
	return ci
}

// mustJSON encodes a string exactly as encoding/json does (including
// HTML escaping of <, >, &), for precomputed serialization literals.
func mustJSON(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}
