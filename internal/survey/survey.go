// Package survey models anonymous questionnaire instruments: sections
// of typed questions, response records, validation, JSON serialization,
// and anonymization. It is the generic substrate under the paper's
// concrete floating point survey (internal/quiz): the design mirrors the
// requirements of the paper's Section II (anonymity, low time
// commitment, no prompting/anchoring — question prompts avoid standard
// terminology, which is why prompts here are free text rather than
// term-linked enums).
package survey

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind is the question type.
type Kind string

const (
	// SingleChoice selects exactly one option.
	SingleChoice Kind = "single"
	// MultiChoice selects any subset of options.
	MultiChoice Kind = "multi"
	// TrueFalse is the quiz kind: true / false / "I don't know".
	TrueFalse Kind = "truefalse"
	// Likert is a 1..Scale rating.
	Likert Kind = "likert"
)

// Canonical TrueFalse answer strings.
const (
	AnswerTrue     = "true"
	AnswerFalse    = "false"
	AnswerDontKnow = "dontknow"
)

// Question is one survey item.
type Question struct {
	ID      string   `json:"id"`
	Prompt  string   `json:"prompt"`
	Kind    Kind     `json:"kind"`
	Options []string `json:"options,omitempty"` // single/multi
	Scale   int      `json:"scale,omitempty"`   // likert: 1..Scale
	// AllowOther permits free-text additions on multi-choice
	// questions (the paper's language-experience lists).
	AllowOther bool `json:"allowOther,omitempty"`
}

// Section groups questions.
type Section struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	Description string     `json:"description,omitempty"`
	Questions   []Question `json:"questions"`
}

// Instrument is a complete survey definition.
type Instrument struct {
	Title    string    `json:"title"`
	Version  string    `json:"version"`
	Sections []Section `json:"sections"`
}

// Questions returns all questions in order.
func (ins *Instrument) Questions() []Question {
	var out []Question
	for _, s := range ins.Sections {
		out = append(out, s.Questions...)
	}
	return out
}

// Question returns the question with the given ID.
func (ins *Instrument) Question(id string) (Question, bool) {
	for _, s := range ins.Sections {
		for _, q := range s.Questions {
			if q.ID == id {
				return q, true
			}
		}
	}
	return Question{}, false
}

// Validate checks the instrument for structural problems: duplicate or
// empty IDs, choice questions without options, bad Likert scales.
func (ins *Instrument) Validate() error {
	if ins.Title == "" {
		return fmt.Errorf("survey: instrument has no title")
	}
	seen := map[string]bool{}
	for _, s := range ins.Sections {
		if s.ID == "" {
			return fmt.Errorf("survey: section with empty id")
		}
		for _, q := range s.Questions {
			if q.ID == "" {
				return fmt.Errorf("survey: question with empty id in section %q", s.ID)
			}
			if seen[q.ID] {
				return fmt.Errorf("survey: duplicate question id %q", q.ID)
			}
			seen[q.ID] = true
			switch q.Kind {
			case SingleChoice, MultiChoice:
				if len(q.Options) == 0 {
					return fmt.Errorf("survey: question %q has no options", q.ID)
				}
				opts := map[string]bool{}
				for _, o := range q.Options {
					if opts[o] {
						return fmt.Errorf("survey: question %q repeats option %q", q.ID, o)
					}
					opts[o] = true
				}
			case TrueFalse:
				if len(q.Options) != 0 {
					return fmt.Errorf("survey: truefalse question %q must not list options", q.ID)
				}
			case Likert:
				if q.Scale < 2 {
					return fmt.Errorf("survey: likert question %q needs scale >= 2", q.ID)
				}
			default:
				return fmt.Errorf("survey: question %q has unknown kind %q", q.ID, q.Kind)
			}
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("survey: instrument has no questions")
	}
	return nil
}

// Answer is one response to one question. Zero value means unanswered.
type Answer struct {
	Choice  string   `json:"choice,omitempty"`  // single/truefalse
	Choices []string `json:"choices,omitempty"` // multi
	Level   int      `json:"level,omitempty"`   // likert, 1-based
}

// IsUnanswered reports whether the answer is empty.
func (a Answer) IsUnanswered() bool {
	return a.Choice == "" && len(a.Choices) == 0 && a.Level == 0
}

// Response is one participant's (anonymous) answers.
type Response struct {
	// Token is an opaque anonymous identifier (assigned by
	// anonymization, never derived from participant identity).
	Token   string            `json:"token"`
	Answers map[string]Answer `json:"answers"`
}

// Answer returns the answer for a question ID (zero Answer if absent).
func (r Response) Answer(id string) Answer { return r.Answers[id] }

// ValidateResponse checks a response against the instrument: unknown
// question IDs, invalid options, out-of-range Likert levels. Unanswered
// questions are always acceptable (participation is voluntary per item).
func (ins *Instrument) ValidateResponse(r Response) error {
	for id, a := range r.Answers {
		q, ok := ins.Question(id)
		if !ok {
			return fmt.Errorf("survey: response answers unknown question %q", id)
		}
		if a.IsUnanswered() {
			continue
		}
		switch q.Kind {
		case SingleChoice:
			if !contains(q.Options, a.Choice) && !q.AllowOther {
				return fmt.Errorf("survey: question %q: option %q not offered", id, a.Choice)
			}
		case MultiChoice:
			for _, c := range a.Choices {
				if !contains(q.Options, c) && !q.AllowOther {
					return fmt.Errorf("survey: question %q: option %q not offered", id, c)
				}
			}
		case TrueFalse:
			switch a.Choice {
			case AnswerTrue, AnswerFalse, AnswerDontKnow:
			default:
				return fmt.Errorf("survey: question %q: bad truefalse answer %q", id, a.Choice)
			}
		case Likert:
			if a.Level < 1 || a.Level > q.Scale {
				return fmt.Errorf("survey: question %q: level %d out of 1..%d", id, a.Level, q.Scale)
			}
		}
	}
	return nil
}

// Dataset is a collection of responses to one instrument.
type Dataset struct {
	Instrument string     `json:"instrument"`
	Version    string     `json:"version"`
	Responses  []Response `json:"responses"`
}

// Validate checks every response in the dataset.
func (ins *Instrument) ValidateDataset(d *Dataset) error {
	if d.Instrument != ins.Title {
		return fmt.Errorf("survey: dataset is for %q, not %q", d.Instrument, ins.Title)
	}
	for i, r := range d.Responses {
		if err := ins.ValidateResponse(r); err != nil {
			return fmt.Errorf("response %d (%s): %w", i, r.Token, err)
		}
	}
	return nil
}

// Anonymize replaces all response tokens with sequential opaque tokens
// ("r0001", ...), destroying any linkage the collector may have had.
// The order of responses is preserved (collection order reveals nothing
// about identity under the paper's recruitment model).
func (d *Dataset) Anonymize() {
	for i := range d.Responses {
		d.Responses[i].Token = fmt.Sprintf("r%04d", i+1)
	}
}

// MarshalJSON/Unmarshal helpers with stable formatting.

// EncodeInstrument renders the instrument as indented JSON.
func EncodeInstrument(ins *Instrument) ([]byte, error) {
	return json.MarshalIndent(ins, "", "  ")
}

// DecodeInstrument parses an instrument and validates it.
func DecodeInstrument(data []byte) (*Instrument, error) {
	var ins Instrument
	if err := json.Unmarshal(data, &ins); err != nil {
		return nil, fmt.Errorf("survey: decode instrument: %w", err)
	}
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	return &ins, nil
}

// EncodeDataset renders a dataset as indented JSON.
func EncodeDataset(d *Dataset) ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// DecodeError reports where in a malformed dataset decoding failed.
// Respondent is the zero-based index of the first offending response
// (-1 when the failure is outside the responses array) and Question the
// offending question ID when the failure is inside one answer.
type DecodeError struct {
	Respondent int
	Question   string
	Err        error
}

func (e *DecodeError) Error() string {
	switch {
	case e.Respondent < 0:
		return fmt.Sprintf("survey: decode dataset: %v", e.Err)
	case e.Question == "":
		return fmt.Sprintf("survey: decode dataset: response %d: %v", e.Respondent, e.Err)
	}
	return fmt.Sprintf("survey: decode dataset: response %d: question %q: %v", e.Respondent, e.Question, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeDataset parses a dataset. Malformed input yields a *DecodeError
// locating the first offending respondent (and question, when the
// damage is inside one answer) rather than a bare position-in-bytes
// JSON error.
func DecodeDataset(data []byte) (*Dataset, error) {
	var d Dataset
	err := json.Unmarshal(data, &d)
	if err == nil {
		return &d, nil
	}
	return nil, diagnoseDecode(data, err)
}

// diagnoseDecode re-parses a dataset that failed to unmarshal, in
// coarse-to-fine passes, to attribute the failure to a respondent and
// question. The original error is always preserved as the cause; this
// only adds location.
func diagnoseDecode(data []byte, cause error) error {
	var shell struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if json.Unmarshal(data, &shell) != nil {
		// The document structure itself (or a field outside the
		// responses) is broken; there is no respondent to blame.
		return &DecodeError{Respondent: -1, Err: cause}
	}
	for i, raw := range shell.Responses {
		var row struct {
			Token   string                     `json:"token"`
			Answers map[string]json.RawMessage `json:"answers"`
		}
		if err := json.Unmarshal(raw, &row); err != nil {
			return &DecodeError{Respondent: i, Err: err}
		}
		ids := make([]string, 0, len(row.Answers))
		for id := range row.Answers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			var a Answer
			if err := json.Unmarshal(row.Answers[id], &a); err != nil {
				return &DecodeError{Respondent: i, Question: id, Err: err}
			}
		}
	}
	return &DecodeError{Respondent: -1, Err: cause}
}

// FlattenCSV renders the dataset as a flat CSV matrix: one row per
// response, one column per question (multi-choice answers joined with
// ';', Likert answers as numbers). The header row carries question IDs.
// This is the export format for analysis outside this repository.
func (ins *Instrument) FlattenCSV(d *Dataset) string {
	qs := ins.Questions()
	var b strings.Builder
	esc := func(c string) string {
		if strings.ContainsAny(c, ",\"\n") {
			return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		return c
	}
	b.WriteString("token")
	for _, q := range qs {
		b.WriteString("," + esc(q.ID))
	}
	b.WriteString("\n")
	for _, r := range d.Responses {
		b.WriteString(esc(r.Token))
		for _, q := range qs {
			a := r.Answer(q.ID)
			cell := ""
			switch {
			case a.IsUnanswered():
			case q.Kind == Likert:
				cell = fmt.Sprintf("%d", a.Level)
			case q.Kind == MultiChoice:
				cell = strings.Join(a.Choices, ";")
			default:
				cell = a.Choice
			}
			b.WriteString("," + esc(cell))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Tally counts answers per option for a single question across a
// dataset: map option -> count. TrueFalse tallies the three canonical
// answers plus "unanswered"; Likert tallies "1".."Scale" plus
// "unanswered"; multi-choice counts each selected option.
func (ins *Instrument) Tally(d *Dataset, questionID string) (map[string]int, error) {
	q, ok := ins.Question(questionID)
	if !ok {
		return nil, fmt.Errorf("survey: unknown question %q", questionID)
	}
	t := map[string]int{}
	for _, r := range d.Responses {
		a := r.Answer(questionID)
		if a.IsUnanswered() {
			t["unanswered"]++
			continue
		}
		switch q.Kind {
		case SingleChoice, TrueFalse:
			t[a.Choice]++
		case MultiChoice:
			for _, c := range a.Choices {
				t[c]++
			}
		case Likert:
			t[fmt.Sprintf("%d", a.Level)]++
		}
	}
	return t, nil
}

// SortedKeys returns map keys in deterministic order, for rendering.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
