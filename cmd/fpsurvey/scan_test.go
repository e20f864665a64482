package main

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/survey"
)

// sampleColumns is a small instrument, with a multi-choice question
// that does not allow free text, holding the given answers, by
// respondent and question ID.
func sampleColumns(t *testing.T, answers []map[string]survey.Answer) *colstore.Dataset {
	t.Helper()
	s := colstore.MustSchema(&survey.Instrument{
		Title: "Sample",
		Sections: []survey.Section{{ID: "s1", Title: "Section One", Questions: []survey.Question{
			{ID: "q1", Kind: survey.SingleChoice, Options: []string{"a", "b"}},
			{ID: "q2", Kind: survey.MultiChoice, Options: []string{"x", "y", "z"}},
			{ID: "q3", Kind: survey.TrueFalse},
			{ID: "q4", Kind: survey.Likert, Scale: 5},
			{ID: "q5", Kind: survey.SingleChoice, Options: []string{"c"}, AllowOther: true},
		}}},
	})
	d := s.NewDataset("1", len(answers))
	for i, row := range answers {
		for id, a := range row {
			if err := d.SetAnswer(s.MustColumnIndex(id), i, a); err != nil {
				t.Fatalf("SetAnswer: %v", err)
			}
		}
	}
	return d
}

// TestValidateColumns checks the option rule on single- and
// multi-choice columns: a label outside the options fails unless the
// column allows free text, and the first failure in respondent, then
// instrument, order is reported.
func TestValidateColumns(t *testing.T) {
	good := map[string]survey.Answer{
		"q1": {Choice: "a"},
		"q2": {Choices: []string{"z", "x"}},
		"q3": {Choice: survey.AnswerDontKnow},
		"q4": {Level: 3},
		"q5": {Choice: "custom"},
	}
	if err := validateColumns(sampleColumns(t, []map[string]survey.Answer{good, {}})); err != nil {
		t.Fatalf("valid dataset: %v", err)
	}
	cases := []struct {
		bad  map[string]survey.Answer
		want string
	}{
		{map[string]survey.Answer{"q1": {Choice: "nope"}},
			`response 1 (r0002): survey: question "q1": option "nope" not offered`},
		{map[string]survey.Answer{"q2": {Choices: []string{"y", "nope", "worse"}}},
			`response 1 (r0002): survey: question "q2": option "nope" not offered`},
		{map[string]survey.Answer{"q2": {Choices: []string{"nope"}}, "q1": {Choice: "later"}},
			`response 1 (r0002): survey: question "q1": option "later" not offered`},
	}
	for _, c := range cases {
		d := sampleColumns(t, []map[string]survey.Answer{good, c.bad, {"q1": {Choice: "third"}}})
		if err := validateColumns(d); err == nil || err.Error() != c.want {
			t.Errorf("%v: error %v, want %q", c.bad, err, c.want)
		}
	}
}

// TestTallyColumn checks the counts per label of every column kind.
func TestTallyColumn(t *testing.T) {
	d := sampleColumns(t, []map[string]survey.Answer{
		{"q1": {Choice: "a"}, "q2": {Choices: []string{"x", "y"}}, "q4": {Level: 5}, "q5": {Choice: "free"}},
		{"q1": {Choice: "a"}, "q2": {Choices: []string{"x"}}, "q3": {Choice: survey.AnswerTrue}},
		{"q1": {Choice: "b"}, "q3": {Choice: survey.AnswerTrue}},
		{},
	})
	for id, want := range map[string]map[string]int{
		"q1": {"a": 2, "b": 1, "unanswered": 1},
		"q2": {"x": 2, "y": 1, "unanswered": 2},
		"q3": {"true": 2, "unanswered": 2},
		"q4": {"5": 1, "unanswered": 3},
		"q5": {"free": 1, "unanswered": 3},
	} {
		if got := tallyColumn(d, d.Schema.MustColumnIndex(id)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s tally = %v, want %v", id, got, want)
		}
	}
}

// TestWriteCSV checks the header, the cell forms of every kind and the
// quoting of a field with a comma or a quote.
func TestWriteCSV(t *testing.T) {
	d := sampleColumns(t, []map[string]survey.Answer{
		{
			"q1": {Choice: "a"},
			"q2": {Choices: []string{"x", "z"}},
			"q3": {Choice: survey.AnswerDontKnow},
			"q4": {Level: 4},
			"q5": {Choice: `say "hi", twice`},
		},
		{},
	})
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeCSV(w, d)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "token,q1,q2,q3,q4,q5\n" +
		"r0001,a,x;z,dontknow,4,\"say \"\"hi\"\", twice\"\n" +
		"r0002,,,,,\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
