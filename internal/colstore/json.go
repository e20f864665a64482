package colstore

import (
	"bufio"
	"io"
	"strconv"

	"fpstudy/internal/survey"
)

// WriteJSON streams the dataset as the row-shaped JSON document (see
// the package's fidelity contract): the bytes encoding/json's
// MarshalIndent with a two-space indent gives a struct of instrument,
// version and responses, each response a token and a map of question
// ID to answer, built without materializing a single map. Answers are
// emitted in sorted question-ID order (encoding/json's sorted map
// keys); option labels and question IDs use JSON literals precomputed
// at schema build time, so serializing one respondent is a pure buffer
// append.
func (d *Dataset) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString("{\n  \"instrument\": ")
	bw.Write(mustJSON(d.Schema.Title))
	bw.WriteString(",\n  \"version\": ")
	bw.Write(mustJSON(d.Version))
	bw.WriteString(",\n  \"responses\": ")
	if d.n == 0 {
		// Match encoding/json: nil slice encodes as null, empty as [].
		if d.nilResponses {
			bw.WriteString("null\n}")
		} else {
			bw.WriteString("[]\n}")
		}
		return bw.Flush()
	}
	bw.WriteString("[\n")
	buf := make([]byte, 0, 1<<12)
	for i := 0; i < d.n; i++ {
		buf = append(buf[:0], "    "...)
		buf = d.appendResponse(buf, i)
		if i < d.n-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	bw.WriteString("  ]\n}")
	return bw.Flush()
}

// answered reports whether respondent i answered column ci.
func (d *Dataset) answered(ci, i int) bool {
	switch d.Schema.cols[ci].Kind {
	case survey.TrueFalse, survey.Likert:
		return d.u8[ci][i] != 0
	case survey.SingleChoice:
		return d.code[ci][i] != 0
	case survey.MultiChoice:
		return !d.MultiUnanswered(ci, i)
	}
	return false
}

// Precomputed JSON literals for the truefalse answer strings.
var (
	jsonTrue     = mustJSON(survey.AnswerTrue)
	jsonFalse    = mustJSON(survey.AnswerFalse)
	jsonDontKnow = mustJSON(survey.AnswerDontKnow)
)

// appendResponse appends respondent i's {"token", "answers"} object at
// the indentation of an element of the "responses" array, each answer
// a survey.Answer as encoding/json renders it.
func (d *Dataset) appendResponse(buf []byte, i int) []byte {
	buf = append(buf, "{\n      \"token\": "...)
	if d.tokens != nil {
		buf = append(buf, mustJSON(d.tokens[i])...)
	} else {
		buf = append(buf, '"')
		buf = appendToken(buf, i)
		buf = append(buf, '"')
	}
	buf = append(buf, ",\n      \"answers\": "...)

	// Find the last answered column so commas land correctly.
	last := -1
	for k := len(d.Schema.emitOrder) - 1; k >= 0; k-- {
		if d.answered(d.Schema.emitOrder[k], i) {
			last = k
			break
		}
	}
	if last < 0 {
		return append(buf, "{}\n    }"...)
	}
	buf = append(buf, "{\n"...)
	for k := 0; k <= last; k++ {
		ci := d.Schema.emitOrder[k]
		if !d.answered(ci, i) {
			continue
		}
		c := &d.Schema.cols[ci]
		buf = append(buf, "        "...)
		buf = append(buf, c.jsonID...)
		buf = append(buf, ": {\n"...)
		switch c.Kind {
		case survey.TrueFalse:
			buf = append(buf, "          \"choice\": "...)
			switch d.u8[ci][i] {
			case TFTrue:
				buf = append(buf, jsonTrue...)
			case TFFalse:
				buf = append(buf, jsonFalse...)
			default:
				buf = append(buf, jsonDontKnow...)
			}
			buf = append(buf, '\n')
		case survey.Likert:
			buf = append(buf, "          \"level\": "...)
			buf = strconv.AppendInt(buf, int64(d.u8[ci][i]), 10)
			buf = append(buf, '\n')
		case survey.SingleChoice:
			buf = append(buf, "          \"choice\": "...)
			if code := d.code[ci][i]; code > 0 {
				buf = append(buf, c.jsonOptions[code-1]...)
			} else {
				buf = append(buf, mustJSON(d.strtab.strs[-code-1])...)
			}
			buf = append(buf, '\n')
		case survey.MultiChoice:
			buf = append(buf, "          \"choices\": [\n"...)
			first := true
			d.ForEachMultiChoiceJSON(ci, i, func(lit []byte) {
				if !first {
					buf = append(buf, ",\n"...)
				}
				first = false
				buf = append(buf, "            "...)
				buf = append(buf, lit...)
			})
			buf = append(buf, "\n          ]\n"...)
		}
		buf = append(buf, "        }"...)
		if k < last {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	return append(buf, "      }\n    }"...)
}

// ForEachMultiChoiceJSON is ForEachMultiChoice over precomputed JSON
// literals (free-text entries are encoded on the fly).
func (d *Dataset) ForEachMultiChoiceJSON(ci, i int, fn func(lit []byte)) {
	e, hasExtra := d.cellExtra(ci, i)
	if hasExtra && e.verbatim {
		for _, ref := range e.refs {
			fn(mustJSON(d.strtab.strs[ref]))
		}
		return
	}
	c := &d.Schema.cols[ci]
	mask := d.bits[ci][i]
	for j := 0; mask != 0; j++ {
		if mask&1 != 0 {
			fn(c.jsonOptions[j])
		}
		mask >>= 1
	}
	if hasExtra {
		for _, ref := range e.refs {
			fn(mustJSON(d.strtab.strs[ref]))
		}
	}
}
