package survey

import (
	"errors"
	"strings"
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

func TestValidateResponse(t *testing.T) {
	ins := sampleInstrument()
	good := Response{Token: "t", Answers: map[string]Answer{
		"q1": {Choice: "a"},
		"q2": {Choices: []string{"x", "z"}},
		"q3": {Choice: AnswerDontKnow},
		"q4": {Level: 3},
	}}
	if err := ins.ValidateResponse(good); err != nil {
		t.Fatal(err)
	}
	bad := []Response{
		{Answers: map[string]Answer{"zzz": {Choice: "a"}}},
		{Answers: map[string]Answer{"q1": {Choice: "nope"}}},
		{Answers: map[string]Answer{"q2": {Choices: []string{"nope"}}}},
		{Answers: map[string]Answer{"q3": {Choice: "maybe"}}},
		{Answers: map[string]Answer{"q4": {Level: 6}}},
		{Answers: map[string]Answer{"q4": {Level: -1, Choice: "x"}}},
	}
	for i, r := range bad {
		if err := ins.ValidateResponse(r); err == nil {
			t.Errorf("bad response %d validated", i)
		}
	}
	// Unanswered questions are fine.
	if err := ins.ValidateResponse(Response{}); err != nil {
		t.Fatal(err)
	}
	// AllowOther accepts unlisted options.
	ins.Sections[0].Questions[0].AllowOther = true
	if err := ins.ValidateResponse(Response{Answers: map[string]Answer{"q1": {Choice: "custom"}}}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetValidateAndAnonymize(t *testing.T) {
	ins := sampleInstrument()
	d := &Dataset{
		Instrument: "Sample",
		Responses: []Response{
			{Token: "alice@example.com", Answers: map[string]Answer{"q1": {Choice: "a"}}},
			{Token: "bob-ip-10.0.0.1", Answers: map[string]Answer{"q1": {Choice: "b"}}},
		},
	}
	if err := ins.ValidateDataset(d); err != nil {
		t.Fatal(err)
	}
	d.Anonymize()
	if d.Responses[0].Token != "r0001" || d.Responses[1].Token != "r0002" {
		t.Fatalf("tokens: %q %q", d.Responses[0].Token, d.Responses[1].Token)
	}
	wrong := &Dataset{Instrument: "Other"}
	if err := ins.ValidateDataset(wrong); err == nil {
		t.Fatal("wrong instrument accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ins := sampleInstrument()
	data, err := EncodeInstrument(ins)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeInstrument(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Title != ins.Title || len(back.Questions()) != 4 {
		t.Fatal("instrument round trip")
	}
	// Invalid instruments fail decode.
	if _, err := DecodeInstrument([]byte(`{"title":""}`)); err == nil {
		t.Fatal("empty instrument decoded")
	}
	if _, err := DecodeInstrument([]byte(`{bad json`)); err == nil {
		t.Fatal("bad json decoded")
	}

	d := &Dataset{Instrument: "Sample", Responses: []Response{
		{Token: "r1", Answers: map[string]Answer{"q4": {Level: 2}}},
	}}
	dd, err := EncodeDataset(d)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeDataset(dd)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Responses[0].Answers["q4"].Level != 2 {
		t.Fatal("dataset round trip")
	}
}

func TestTally(t *testing.T) {
	ins := sampleInstrument()
	d := &Dataset{Instrument: "Sample", Responses: []Response{
		{Answers: map[string]Answer{"q1": {Choice: "a"}, "q2": {Choices: []string{"x", "y"}}, "q4": {Level: 5}}},
		{Answers: map[string]Answer{"q1": {Choice: "a"}, "q2": {Choices: []string{"x"}}}},
		{Answers: map[string]Answer{"q1": {Choice: "b"}}},
		{Answers: map[string]Answer{}},
	}}
	tal, err := ins.Tally(d, "q1")
	if err != nil {
		t.Fatal(err)
	}
	if tal["a"] != 2 || tal["b"] != 1 || tal["unanswered"] != 1 {
		t.Fatalf("q1 tally: %v", tal)
	}
	tal, _ = ins.Tally(d, "q2")
	if tal["x"] != 2 || tal["y"] != 1 {
		t.Fatalf("q2 tally: %v", tal)
	}
	tal, _ = ins.Tally(d, "q4")
	if tal["5"] != 1 || tal["unanswered"] != 3 {
		t.Fatalf("q4 tally: %v", tal)
	}
	if _, err := ins.Tally(d, "zzz"); err == nil {
		t.Fatal("unknown question tallied")
	}
}

func TestSortedKeys(t *testing.T) {
	ks := SortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if strings.Join(ks, "") != "abc" {
		t.Fatalf("keys: %v", ks)
	}
}

func TestFlattenCSV(t *testing.T) {
	ins := sampleInstrument()
	d := &Dataset{Instrument: "Sample", Responses: []Response{
		{Token: "r1", Answers: map[string]Answer{
			"q1": {Choice: "a"},
			"q2": {Choices: []string{"x", "z"}},
			"q3": {Choice: AnswerDontKnow},
			"q4": {Level: 4},
		}},
		{Token: "r2", Answers: map[string]Answer{}},
	}}
	csv := ins.FlattenCSV(d)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %d\n%s", len(lines), csv)
	}
	if lines[0] != "token,q1,q2,q3,q4" {
		t.Fatalf("header: %q", lines[0])
	}
	if lines[1] != "r1,a,x;z,dontknow,4" {
		t.Fatalf("row1: %q", lines[1])
	}
	if lines[2] != "r2,,,," {
		t.Fatalf("row2: %q", lines[2])
	}
}

func TestQuestionLookup(t *testing.T) {
	ins := sampleInstrument()
	if q, ok := ins.Question("q3"); !ok || q.Kind != TrueFalse {
		t.Fatal("lookup q3")
	}
	if _, ok := ins.Question("nope"); ok {
		t.Fatal("found nonexistent question")
	}
}

// TestDecodeDatasetErrors pins the structured decode diagnostics: a
// malformed dataset names the first offending respondent index and,
// when the damage is inside one answer, the question ID.
func TestDecodeDatasetErrors(t *testing.T) {
	mk := func(answers string) string {
		return `{"instrument":"I","version":"1","responses":[` +
			`{"token":"r0001","answers":{"q1":{"choice":"true"}}},` +
			`{"token":"r0002","answers":{` + answers + `}}]}`
	}
	cases := []struct {
		name, in       string
		wantRespondent int
		wantQuestion   string
	}{
		{"bad answer value", mk(`"q7":{"level":"high"}`), 1, "q7"},
		{"answer not an object", mk(`"q2":5`), 1, "q2"},
		{"response not an object", `{"responses":[{"token":"a","answers":{}},17]}`, 1, ""},
		{"document broken", `{"responses": 12}`, -1, ""},
	}
	for _, tc := range cases {
		_, err := DecodeDataset([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: decoded without error", tc.name)
		}
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err is %T (%v), want *DecodeError", tc.name, err, err)
		}
		if de.Respondent != tc.wantRespondent || de.Question != tc.wantQuestion {
			t.Fatalf("%s: located respondent %d question %q, want %d %q (err: %v)",
				tc.name, de.Respondent, de.Question, tc.wantRespondent, tc.wantQuestion, err)
		}
		if de.Unwrap() == nil {
			t.Fatalf("%s: DecodeError lost its cause", tc.name)
		}
	}

	// A valid dataset still decodes.
	if _, err := DecodeDataset([]byte(mk(`"q2":{"level":3}`))); err != nil {
		t.Fatalf("valid dataset: %v", err)
	}
}

// FuzzDecodeDataset requires every dataset DecodeDataset accepts to
// encode again.
func FuzzDecodeDataset(f *testing.F) {
	d := &Dataset{Instrument: "Sample", Responses: []Response{
		{Token: "r1", Answers: map[string]Answer{"q4": {Level: 2}}},
	}}
	dd, err := EncodeDataset(d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dd)
	mk := func(answers string) []byte {
		return []byte(`{"instrument":"I","version":"1","responses":[` +
			`{"token":"r0001","answers":{"q1":{"choice":"true"}}},` +
			`{"token":"r0002","answers":{` + answers + `}}]}`)
	}
	f.Add(mk(`"q2":{"level":3}`))
	f.Add(mk(`"q7":{"level":"high"}`))
	f.Add(mk(`"q2":5`))
	f.Add([]byte(`{"responses":[{"token":"a","answers":{}},17]}`))
	f.Add([]byte(`{"responses": 12}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDataset(data)
		if err != nil {
			return
		}
		if _, err := EncodeDataset(d); err != nil {
			t.Fatalf("EncodeDataset of accepted dataset failed: %v", err)
		}
	})
}
