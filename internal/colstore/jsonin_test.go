package colstore_test

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// TestDecodeJSONRoundTrip streams seeded-random row JSON into columns
// and requires WriteJSON to reproduce the input byte-for-byte — the
// streaming ingest must be lossless against the whole-document path.
func TestDecodeJSONRoundTrip(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(rng, rng.Intn(30), false)
		want, err := survey.EncodeDataset(ds)
		if err != nil {
			t.Fatalf("trial %d: EncodeDataset: %v", trial, err)
		}
		cols, err := colstore.DecodeJSON(schema, bytes.NewReader(want))
		if err != nil {
			t.Fatalf("trial %d: DecodeJSON: %v", trial, err)
		}
		if cols.Schema != schema {
			t.Fatalf("trial %d: decoded dataset does not reuse the caller's schema", trial)
		}
		var got bytes.Buffer
		if err := cols.WriteJSON(&got); err != nil {
			t.Fatalf("trial %d: WriteJSON: %v", trial, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: JSON round trip diverged", trial)
		}
	}
}

// TestDecodeJSONToBinaryChain pins the full acceptance chain:
// JSON → columns → binary → columns → WriteJSON equals the source JSON.
func TestDecodeJSONToBinaryChain(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(37))
	ds := randomDataset(rng, 60, false)
	src, err := survey.EncodeDataset(ds)
	if err != nil {
		t.Fatalf("EncodeDataset: %v", err)
	}
	cols, err := colstore.DecodeJSON(schema, bytes.NewReader(src))
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	var bin bytes.Buffer
	if err := cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	back, err := colstore.DecodeBinary(schema, bytes.NewReader(bin.Bytes()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	var got bytes.Buffer
	if err := back.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), src) {
		t.Fatalf("JSON→binary→JSON chain diverged from the source document")
	}
}

// TestDecodeJSONNilVsEmpty pins the null-vs-[] responses distinction
// through the streaming path.
func TestDecodeJSONNilVsEmpty(t *testing.T) {
	schema := quiz.Columns()
	ins := quiz.Instrument()
	for _, responses := range [][]survey.Response{nil, {}} {
		ds := &survey.Dataset{Instrument: ins.Title, Version: "1.0", Responses: responses}
		want, err := survey.EncodeDataset(ds)
		if err != nil {
			t.Fatalf("EncodeDataset: %v", err)
		}
		cols, err := colstore.DecodeJSON(schema, bytes.NewReader(want))
		if err != nil {
			t.Fatalf("nil=%v: DecodeJSON: %v", responses == nil, err)
		}
		var got bytes.Buffer
		if err := cols.WriteJSON(&got); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("nil=%v: round trip diverged:\n got %q\nwant %q", responses == nil, got.Bytes(), want)
		}
	}
}

// TestDecodeJSONErrors checks the failure modes name the offending
// location: wrong instrument, unknown question, out-of-range level,
// wrong answer shape, truncation.
func TestDecodeJSONErrors(t *testing.T) {
	schema := quiz.Columns()
	likertID := ""
	tfID := ""
	for i := 0; i < len(quiz.Instrument().Questions()); i++ {
		c := schema.Column(i)
		if c.Kind == survey.Likert && likertID == "" {
			likertID = c.ID
		}
		if c.Kind == survey.TrueFalse && tfID == "" {
			tfID = c.ID
		}
	}
	mk := func(answers string) string {
		return `{"instrument":"` + quiz.Instrument().Title + `","version":"1.0","responses":[` +
			`{"token":"r0001","answers":{}},{"token":"r0002","answers":{` + answers + `}}]}`
	}
	cases := []struct {
		name, in, want string
	}{
		{"wrong instrument", `{"instrument":"nope","responses":[]}`, `dataset is for "nope"`},
		{"unknown question", mk(`"zz.bogus":{"choice":"x"}`), `response 1 answers unknown question "zz.bogus"`},
		{"bad level", mk(`"` + likertID + `":{"level":99}`), "response 1"},
		{"fractional level", mk(`"` + likertID + `":{"level":1.5}`), "want an integer"},
		{"wrong shape", mk(`"` + tfID + `":{"level":2}`), "response 1"},
		{"truncated", `{"instrument":"` + quiz.Instrument().Title + `","responses":[{"token":"r00`, "truncated"},
		{"not an object", `[1,2,3]`, "dataset"},
	}
	for _, tc := range cases {
		_, err := colstore.DecodeJSON(schema, strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: decoded without error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDecodeJSONBoundedBuffering is a behavioural proxy for the
// streaming contract: the decoder reads from a reader that forbids
// whole-file buffering by yielding tiny chunks, and still round-trips.
func TestDecodeJSONBoundedBuffering(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(41))
	ds := randomDataset(rng, 10, false)
	want, err := survey.EncodeDataset(ds)
	if err != nil {
		t.Fatalf("EncodeDataset: %v", err)
	}
	cols, err := colstore.DecodeJSON(schema, &drip{data: want})
	if err != nil {
		t.Fatalf("DecodeJSON over dripping reader: %v", err)
	}
	var got bytes.Buffer
	if err := cols.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("dripped decode diverged")
	}
}

// drip yields at most 7 bytes per Read.
type drip struct {
	data []byte
	off  int
}

func (d *drip) Read(p []byte) (int, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 7)], d.data[d.off:])
	d.off += n
	return n, nil
}

// FuzzDecodeJSON requires every row-JSON document DecodeJSON accepts to
// survive WriteJSON → DecodeJSON → WriteJSON byte for byte and to
// encode as an FPDS shard.
func FuzzDecodeJSON(f *testing.F) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 7} {
		src, err := survey.EncodeDataset(randomDataset(rng, n, false))
		if err != nil {
			f.Fatalf("EncodeDataset: %v", err)
		}
		f.Add(src)
	}
	title := quiz.Instrument().Title
	f.Add([]byte(`{"instrument":"nope","responses":[]}`))
	f.Add([]byte(`{"instrument":"` + title + `","responses":[{"token":"r00`))
	f.Add([]byte(`{"instrument":"` + title + `","version":"1.0","responses":[{"token":"r0001","answers":null}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := colstore.DecodeJSON(schema, bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := d.WriteJSON(&first); err != nil {
			t.Fatalf("WriteJSON of accepted document failed: %v", err)
		}
		again, err := colstore.DecodeJSON(schema, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("DecodeJSON of WriteJSON output failed: %v", err)
		}
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("second WriteJSON failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteJSON → DecodeJSON → WriteJSON is not byte-stable")
		}
		if err := d.EncodeBinary(io.Discard, colstore.IOOptions{}); err != nil {
			t.Fatalf("EncodeBinary of accepted document failed: %v", err)
		}
	})
}
