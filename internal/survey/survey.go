// Package survey models anonymous questionnaire instruments: sections
// of typed questions, their validation and JSON form, the participant
// text, and Answer, the shape of one answer to one question in a JSON
// dataset. It is the generic substrate under the paper's concrete
// floating point survey (internal/quiz): the design mirrors the
// requirements of the paper's Section II (anonymity, low time
// commitment, no prompting/anchoring — question prompts avoid standard
// terminology, which is why prompts here are free text rather than
// term-linked enums). Response datasets are held in columns, by
// package internal/colstore.
package survey

import (
	"encoding/json"
	"fmt"
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

// EncodeInstrument renders the instrument as indented JSON.
func EncodeInstrument(ins *Instrument) ([]byte, error) {
	return json.MarshalIndent(ins, "", "  ")
}
