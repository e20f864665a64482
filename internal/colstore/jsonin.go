package colstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"fpstudy/internal/survey"
)

// DecodeJSON parses a row-shaped JSON dataset (the document WriteJSON
// and fpgen write) straight into columns, token by token: no
// per-respondent answer maps, no whole-file buffer. Memory is bounded
// by the columns themselves plus one respondent's worth of decoder
// state.
//
// The file's instrument title must match s.Title (answers are resolved
// against s's option tables), every answered question must be in the
// schema, and every answer must fit its column kind as SetAnswer
// requires. An explicitly-present-but-empty answer is stored as
// unanswered, and a null answers object as no answers. Errors name the
// first offending respondent index and question ID.
func DecodeJSON(s *Schema, r io.Reader) (*Dataset, error) {
	dec := json.NewDecoder(bufio.NewReaderSize(r, 1<<16))
	if err := expectDelim(dec, '{', "dataset"); err != nil {
		return nil, err
	}
	d := s.NewDataset("", 0)
	sawResponses := false
	for dec.More() {
		key, err := stringToken(dec, "dataset key")
		if err != nil {
			return nil, err
		}
		switch key {
		case "instrument":
			title, err := stringToken(dec, `"instrument"`)
			if err != nil {
				return nil, err
			}
			if title != s.Title {
				return nil, fmt.Errorf("colstore: decode json: dataset is for %q, not %q", title, s.Title)
			}
		case "version":
			if d.Version, err = stringToken(dec, `"version"`); err != nil {
				return nil, err
			}
		case "responses":
			if sawResponses {
				return nil, fmt.Errorf(`colstore: decode json: duplicate "responses" key`)
			}
			sawResponses = true
			if err := d.decodeResponses(dec); err != nil {
				return nil, err
			}
		default:
			if err := skipValue(dec); err != nil {
				return nil, fmt.Errorf("colstore: decode json: key %q: %w", key, err)
			}
		}
	}
	if err := expectDelim(dec, '}', "dataset"); err != nil {
		return nil, err
	}
	if !sawResponses {
		d.nilResponses = true
	}
	return d, nil
}

// decodeResponses parses the "responses" value: null, or an array of
// response objects appended row by row.
func (d *Dataset) decodeResponses(dec *json.Decoder) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf(`colstore: decode json: "responses": %w`, err)
	}
	if tok == nil {
		d.nilResponses = true
		return nil
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '[' {
		return fmt.Errorf(`colstore: decode json: "responses" is %v, want an array or null`, tok)
	}
	var scratch survey.Answer
	for dec.More() {
		i := d.appendRow()
		if err := d.decodeResponse(dec, i, &scratch); err != nil {
			return err
		}
	}
	if err := expectDelim(dec, ']', `"responses"`); err != nil {
		return err
	}
	return nil
}

// appendRow grows every column by one zero (unanswered) respondent and
// returns the new row index.
func (d *Dataset) appendRow() int {
	i := d.n
	d.n++
	for ci := range d.Schema.cols {
		switch d.Schema.cols[ci].Kind {
		case survey.TrueFalse, survey.Likert:
			d.u8[ci] = append(d.u8[ci], 0)
		case survey.SingleChoice:
			d.code[ci] = append(d.code[ci], 0)
		case survey.MultiChoice:
			d.bits[ci] = append(d.bits[ci], 0)
		}
	}
	d.tokens = append(d.tokens, "")
	return i
}

// decodeResponse parses one response object into row i.
func (d *Dataset) decodeResponse(dec *json.Decoder, i int, scratch *survey.Answer) error {
	wrap := func(err error) error {
		return fmt.Errorf("colstore: decode json: response %d: %w", i, err)
	}
	if err := expectDelim(dec, '{', "response"); err != nil {
		return wrap(err)
	}
	for dec.More() {
		key, err := stringToken(dec, "response key")
		if err != nil {
			return wrap(err)
		}
		switch key {
		case "token":
			if d.tokens[i], err = stringToken(dec, `"token"`); err != nil {
				return wrap(err)
			}
		case "answers":
			if err := d.decodeAnswers(dec, i, scratch); err != nil {
				return err
			}
		default:
			if err := skipValue(dec); err != nil {
				return wrap(fmt.Errorf("key %q: %w", key, err))
			}
		}
	}
	if err := expectDelim(dec, '}', "response"); err != nil {
		return wrap(err)
	}
	return nil
}

// decodeAnswers parses the answers object of row i (null means empty).
func (d *Dataset) decodeAnswers(dec *json.Decoder, i int, scratch *survey.Answer) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("colstore: decode json: response %d: answers: %w", i, err)
	}
	if tok == nil {
		return nil
	}
	if delim, ok := tok.(json.Delim); !ok || delim != '{' {
		return fmt.Errorf("colstore: decode json: response %d: answers is %v, want an object or null", i, tok)
	}
	for dec.More() {
		id, err := stringToken(dec, "question id")
		if err != nil {
			return fmt.Errorf("colstore: decode json: response %d: %w", i, err)
		}
		ci, ok := d.Schema.byID[id]
		if !ok {
			return fmt.Errorf("colstore: decode json: response %d answers unknown question %q", i, id)
		}
		*scratch = survey.Answer{Choices: scratch.Choices[:0]}
		if err := decodeAnswer(dec, scratch); err != nil {
			return fmt.Errorf("colstore: decode json: response %d: question %q: %w", i, id, err)
		}
		if err := d.SetAnswer(ci, i, *scratch); err != nil {
			return fmt.Errorf("colstore: decode json: response %d: %w", i, err)
		}
	}
	if err := expectDelim(dec, '}', "answers"); err != nil {
		return fmt.Errorf("colstore: decode json: response %d: %w", i, err)
	}
	return nil
}

// decodeAnswer parses one answer object into a (reused) scratch value.
// The scratch's Choices backing array is reused across answers; the
// column writers never retain the slice, only the interned strings.
func decodeAnswer(dec *json.Decoder, a *survey.Answer) error {
	if err := expectDelim(dec, '{', "answer"); err != nil {
		return err
	}
	for dec.More() {
		key, err := stringToken(dec, "answer key")
		if err != nil {
			return err
		}
		switch key {
		case "choice":
			if a.Choice, err = stringToken(dec, `"choice"`); err != nil {
				return err
			}
		case "choices":
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			if tok == nil {
				break
			}
			if delim, ok := tok.(json.Delim); !ok || delim != '[' {
				return fmt.Errorf(`"choices" is %v, want an array or null`, tok)
			}
			for dec.More() {
				c, err := stringToken(dec, "choice entry")
				if err != nil {
					return err
				}
				a.Choices = append(a.Choices, c)
			}
			if err := expectDelim(dec, ']', `"choices"`); err != nil {
				return err
			}
		case "level":
			tok, err := dec.Token()
			if err != nil {
				return err
			}
			f, ok := tok.(float64)
			if !ok || f != float64(int(f)) {
				return fmt.Errorf(`"level" is %v, want an integer`, tok)
			}
			a.Level = int(f)
		default:
			if err := skipValue(dec); err != nil {
				return fmt.Errorf("key %q: %w", key, err)
			}
		}
	}
	return expectDelim(dec, '}', "answer")
}

// expectDelim consumes one token and requires it to be the delimiter.
func expectDelim(dec *json.Decoder, want json.Delim, what string) error {
	tok, err := dec.Token()
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("colstore: decode json: truncated input: %s not closed", what)
		}
		return fmt.Errorf("colstore: decode json: %s: %w", what, err)
	}
	if delim, ok := tok.(json.Delim); !ok || delim != want {
		return fmt.Errorf("colstore: decode json: %s: got %v, want %q", what, tok, want)
	}
	return nil
}

// stringToken consumes one token and requires it to be a string.
func stringToken(dec *json.Decoder, what string) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return "", fmt.Errorf("truncated input at %s", what)
		}
		return "", err
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("%s is %v, want a string", what, tok)
	}
	return s, nil
}

// skipValue consumes one complete JSON value of any shape.
func skipValue(dec *json.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if delim, ok := tok.(json.Delim); ok {
			switch delim {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
		}
		if depth == 0 {
			return nil
		}
	}
}
