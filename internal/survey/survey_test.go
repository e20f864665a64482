package survey

import (
	"encoding/json"
	"testing"
)

func sampleInstrument() *Instrument {
	return &Instrument{
		Title:   "Sample",
		Version: "1",
		Sections: []Section{
			{
				ID:    "s1",
				Title: "Section One",
				Questions: []Question{
					{ID: "q1", Prompt: "Pick one", Kind: SingleChoice, Options: []string{"a", "b"}},
					{ID: "q2", Prompt: "Pick many", Kind: MultiChoice, Options: []string{"x", "y", "z"}},
					{ID: "q3", Prompt: "True?", Kind: TrueFalse},
					{ID: "q4", Prompt: "Rate", Kind: Likert, Scale: 5},
				},
			},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleInstrument().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instrument)
	}{
		{"no title", func(i *Instrument) { i.Title = "" }},
		{"dup id", func(i *Instrument) { i.Sections[0].Questions[1].ID = "q1" }},
		{"empty id", func(i *Instrument) { i.Sections[0].Questions[0].ID = "" }},
		{"no options", func(i *Instrument) { i.Sections[0].Questions[0].Options = nil }},
		{"dup option", func(i *Instrument) { i.Sections[0].Questions[0].Options = []string{"a", "a"} }},
		{"bad likert", func(i *Instrument) { i.Sections[0].Questions[3].Scale = 1 }},
		{"tf with options", func(i *Instrument) { i.Sections[0].Questions[2].Options = []string{"a"} }},
		{"bad kind", func(i *Instrument) { i.Sections[0].Questions[0].Kind = "nope" }},
		{"empty section id", func(i *Instrument) { i.Sections[0].ID = "" }},
		{"no questions", func(i *Instrument) { i.Sections[0].Questions = nil }},
	}
	for _, c := range cases {
		ins := sampleInstrument()
		c.mutate(ins)
		if err := ins.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ins := sampleInstrument()
	data, err := EncodeInstrument(ins)
	if err != nil {
		t.Fatal(err)
	}
	var back Instrument
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Title != ins.Title || len(back.Questions()) != 4 {
		t.Fatal("instrument round trip")
	}
}
