package colstore_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// randomAnswer draws a random answer for q, exercising every storage
// path the column kinds have: codes, free text ("other") references,
// verbatim (shuffled) multi lists, free-text multi additions, and —
// when allowEmpty is set — explicitly-present-but-empty answers.
func randomAnswer(rng *rand.Rand, q survey.Question, allowEmpty bool) (survey.Answer, bool) {
	if allowEmpty && rng.Intn(10) == 0 {
		return survey.Answer{}, true // present but empty
	}
	switch q.Kind {
	case survey.TrueFalse:
		tf := []string{survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}
		return survey.Answer{Choice: tf[rng.Intn(len(tf))]}, true
	case survey.Likert:
		return survey.Answer{Level: 1 + rng.Intn(q.Scale)}, true
	case survey.SingleChoice:
		if rng.Intn(8) == 0 {
			// Free text: not in the option list, spills to the arena.
			return survey.Answer{Choice: "write-in option &<js>"}, true
		}
		return survey.Answer{Choice: q.Options[rng.Intn(len(q.Options))]}, true
	case survey.MultiChoice:
		var choices []string
		for _, o := range q.Options {
			if rng.Intn(3) == 0 {
				choices = append(choices, o)
			}
		}
		switch rng.Intn(4) {
		case 0:
			if len(choices) > 1 {
				// Verbatim path: a non-canonical order must round-trip
				// exactly as given.
				j := rng.Intn(len(choices) - 1)
				choices[j], choices[j+1] = choices[j+1], choices[j]
			}
		case 1:
			// Canonical prefix plus free-text additions.
			choices = append(choices, "Befunge-93", "INTERCAL")
		}
		if choices == nil {
			return survey.Answer{}, false // unanswered: omit entirely
		}
		return survey.Answer{Choices: choices}, true
	}
	return survey.Answer{}, false
}

// randomAnswers draws seeded-random answers over the quiz instrument:
// answers[i][ci] is respondent i's answer to column ci, the zero Answer
// when unanswered. When allowEmpty is set some answers are explicitly
// present but empty (stored as unanswered).
func randomAnswers(rng *rand.Rand, n int, allowEmpty bool) [][]survey.Answer {
	qs := quiz.Instrument().Questions()
	answers := make([][]survey.Answer, n)
	for i := range answers {
		answers[i] = make([]survey.Answer, len(qs))
		for ci, q := range qs {
			if rng.Intn(5) == 0 {
				continue // unanswered
			}
			if a, ok := randomAnswer(rng, q, allowEmpty); ok {
				answers[i][ci] = a
			}
		}
	}
	return answers
}

// storeAnswers builds a dataset over the quiz schema holding answers
// (see randomAnswers), with the automatic tokens r0001, r0002, ...
func storeAnswers(t testing.TB, answers [][]survey.Answer) *colstore.Dataset {
	t.Helper()
	d := quiz.Columns().NewDataset("1.0", len(answers))
	for i, row := range answers {
		for ci, a := range row {
			if err := d.SetAnswer(ci, i, a); err != nil {
				t.Fatalf("SetAnswer(%d, %d, %+v): %v", ci, i, a, err)
			}
		}
	}
	return d
}

// randomColumns is a dataset of n respondents with seeded-random
// answers (randomAnswers).
func randomColumns(t testing.TB, rng *rand.Rand, n int, allowEmpty bool) *colstore.Dataset {
	t.Helper()
	return storeAnswers(t, randomAnswers(rng, n, allowEmpty))
}

// writeJSON is WriteJSON into a byte slice, fatal on error.
func writeJSON(t testing.TB, d *colstore.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// emptyJSON is the document of a dataset with no respondents whose
// "responses" is null (nilResponses) or [].
func emptyJSON(nilResponses bool) []byte {
	responses := "[]"
	if nilResponses {
		responses = "null"
	}
	return []byte("{\n  \"instrument\": \"" + quiz.Instrument().Title + "\",\n  \"version\": \"1.0\",\n  \"responses\": " + responses + "\n}")
}

// cellAnswer reads cell (ci, i) back through the column readers as the
// answer it holds (the zero Answer when unanswered).
func cellAnswer(d *colstore.Dataset, ci, i int) survey.Answer {
	switch d.Schema.Column(ci).Kind {
	case survey.TrueFalse:
		return survey.Answer{Choice: map[uint8]string{
			colstore.TFTrue:     survey.AnswerTrue,
			colstore.TFFalse:    survey.AnswerFalse,
			colstore.TFDontKnow: survey.AnswerDontKnow,
		}[d.TF(ci, i)]}
	case survey.Likert:
		return survey.Answer{Level: d.LikertLevel(ci, i)}
	case survey.SingleChoice:
		return survey.Answer{Choice: d.SingleLabel(ci, i)}
	}
	var choices []string
	d.ForEachMultiChoice(ci, i, func(label string) { choices = append(choices, label) })
	return survey.Answer{Choices: choices}
}

// TestRoundTripProperty stores seeded-random answers with SetAnswer and
// reads every cell back through the column readers: each answer must
// come back as given, and each explicitly-empty answer as unanswered.
// Covers free-text single answers, verbatim (non-canonical) multi
// lists, free-text multi additions and unanswered questions.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		answers := randomAnswers(rng, 1+rng.Intn(8), true)
		d := storeAnswers(t, answers)
		for i, row := range answers {
			for ci, want := range row {
				if got := cellAnswer(d, ci, i); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: respondent %d, %s: read back %+v, stored %+v",
						trial, i, d.Schema.Column(ci).ID, got, want)
				}
			}
		}
	}
}

// TestRoundTripNilAnswers checks a null answers object decodes as a
// respondent who answered nothing, and the null-vs-[] "responses"
// distinction of a dataset with no respondents.
func TestRoundTripNilAnswers(t *testing.T) {
	schema := quiz.Columns()
	title := quiz.Instrument().Title
	in := `{"instrument":"` + title + `","version":"1.0","responses":[{"token":"r0001","answers":null}]}`
	d, err := colstore.DecodeJSON(schema, bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	want := "{\n  \"instrument\": \"" + title + "\",\n  \"version\": \"1.0\",\n  \"responses\": [\n" +
		"    {\n      \"token\": \"r0001\",\n      \"answers\": {}\n    }\n  ]\n}"
	if got := writeJSON(t, d); string(got) != want {
		t.Fatalf("null answers: WriteJSON\n got %q\nwant %q", got, want)
	}

	if got := writeJSON(t, schema.NewDataset("1.0", 0)); !bytes.Equal(got, emptyJSON(false)) {
		t.Fatalf("NewDataset(0): WriteJSON\n got %q\nwant %q", got, emptyJSON(false))
	}
	for _, nilResponses := range []bool{true, false} {
		d, err := colstore.DecodeJSON(schema, bytes.NewReader(emptyJSON(nilResponses)))
		if err != nil {
			t.Fatalf("nil=%v: DecodeJSON: %v", nilResponses, err)
		}
		if got := writeJSON(t, d); !bytes.Equal(got, emptyJSON(nilResponses)) {
			t.Fatalf("nil=%v: WriteJSON\n got %q\nwant %q", nilResponses, got, emptyJSON(nilResponses))
		}
	}
}

// TestWriteJSONByteIdentity pins the codecs to committed bytes:
// testdata/random12.json and random12.fpds hold a 12-respondent dataset
// of seed-2018 random answers (every answer shape, free text with
// characters that hit encoding/json's HTML escaping included), written
// by the row-form JSON encoder and the FPDS encoder of an earlier
// version. WriteJSON of the same answers, and of either file decoded,
// must give the JSON bytes; EncodeBinary of the decoded JSON must give
// the FPDS bytes.
func TestWriteJSONByteIdentity(t *testing.T) {
	schema := quiz.Columns()
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "random12.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantFPDS, err := os.ReadFile(filepath.Join("testdata", "random12.fpds"))
	if err != nil {
		t.Fatal(err)
	}
	stored := randomColumns(t, rand.New(rand.NewSource(2018)), 12, false)
	fromJSON, err := colstore.DecodeJSON(schema, bytes.NewReader(wantJSON))
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	fromFPDS, err := colstore.DecodeBinary(schema, bytes.NewReader(wantFPDS), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	for name, d := range map[string]*colstore.Dataset{"stored": stored, "json": fromJSON, "fpds": fromFPDS} {
		if got := writeJSON(t, d); !bytes.Equal(got, wantJSON) {
			i := 0
			for i < len(got) && i < len(wantJSON) && got[i] == wantJSON[i] {
				i++
			}
			lo := max(i-60, 0)
			t.Fatalf("%s: WriteJSON diverged from random12.json at byte %d:\n got ...%s\nwant ...%s",
				name, i, got[lo:min(i+60, len(got))], wantJSON[lo:min(i+60, len(wantJSON))])
		}
	}
	if got := encodeBinary(t, fromJSON, 0); !bytes.Equal(got, wantFPDS) {
		t.Fatalf("EncodeBinary of random12.json differs from random12.fpds")
	}
}

// TestInternedStrings checks arena accounting: identical free-text
// payloads share one entry.
func TestInternedStrings(t *testing.T) {
	schema := quiz.Columns()
	single := -1
	for ci := 0; ci < schema.NumColumns(); ci++ {
		if schema.Column(ci).Kind == survey.SingleChoice {
			single = ci
			break
		}
	}
	d := schema.NewDataset("1.0", 2)
	for i := 0; i < 2; i++ {
		if err := d.SetAnswer(single, i, survey.Answer{Choice: "write-in"}); err != nil {
			t.Fatalf("SetAnswer: %v", err)
		}
	}
	if got := d.InternedStrings(); got != 1 {
		t.Fatalf("InternedStrings = %d, want 1 (identical payloads share an entry)", got)
	}
}
