package colstore_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// encodeBinary is the test shorthand: encode at a worker count, fatal
// on error.
func encodeBinary(t *testing.T, d *colstore.Dataset, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf, colstore.IOOptions{Workers: workers}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripProperty pins the acceptance chain on seeded-random
// datasets: rows → columns → binary → columns → WriteJSON must equal the
// direct row-form JSON byte-for-byte (free text with HTML-escaped
// characters and verbatim multi lists included).
func TestBinaryRoundTripProperty(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ds := randomDataset(rng, 1+rng.Intn(40), false)
		cols, err := colstore.FromSurvey(schema, ds)
		if err != nil {
			t.Fatalf("trial %d: FromSurvey: %v", trial, err)
		}
		enc := encodeBinary(t, cols, 0)
		back, err := colstore.DecodeBinary(schema, bytes.NewReader(enc), colstore.IOOptions{})
		if err != nil {
			t.Fatalf("trial %d: DecodeBinary: %v", trial, err)
		}
		if back.Schema != schema {
			t.Fatalf("trial %d: decoded dataset does not reuse the caller's schema", trial)
		}
		want, err := survey.EncodeDataset(ds)
		if err != nil {
			t.Fatalf("trial %d: EncodeDataset: %v", trial, err)
		}
		var got bytes.Buffer
		if err := back.WriteJSON(&got); err != nil {
			t.Fatalf("trial %d: WriteJSON: %v", trial, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: binary round trip diverged from the row JSON", trial)
		}
	}
}

// TestBinaryParallelByteIdentity pins the parallel-codec contract: the
// encoded file is byte-identical at workers 1/4/16, and decoding at any
// of those worker counts reproduces the same dataset.
func TestBinaryParallelByteIdentity(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(23))
	// Cross a block boundary so multiple blocks actually exist.
	ds := randomDataset(rng, 9000, false)
	cols, err := colstore.FromSurvey(schema, ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	base := encodeBinary(t, cols, 1)
	for _, w := range []int{4, 16} {
		if enc := encodeBinary(t, cols, w); !bytes.Equal(enc, base) {
			t.Fatalf("workers=%d: encoding differs from workers=1", w)
		}
	}
	var baseJSON bytes.Buffer
	if err := cols.WriteJSON(&baseJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, w := range []int{1, 4, 16} {
		back, err := colstore.DecodeBinary(schema, bytes.NewReader(base), colstore.IOOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: DecodeBinary: %v", w, err)
		}
		var got bytes.Buffer
		if err := back.WriteJSON(&got); err != nil {
			t.Fatalf("workers=%d: WriteJSON: %v", w, err)
		}
		if !bytes.Equal(got.Bytes(), baseJSON.Bytes()) {
			t.Fatalf("workers=%d: decoded dataset differs", w)
		}
	}
}

// TestBinaryAutoTokens checks the token-arena elision: sequential
// anonymous tokens are regenerated, not stored, and a single
// out-of-scheme token forces the arena back in.
func TestBinaryAutoTokens(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 50, false) // Anonymize gives r0001.. tokens
	cols, err := colstore.FromSurvey(schema, ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	auto := encodeBinary(t, cols, 0)

	ds.Responses[17].Token = "participant-17"
	cols2, err := colstore.FromSurvey(schema, ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	explicit := encodeBinary(t, cols2, 0)
	if len(explicit) <= len(auto) {
		t.Fatalf("explicit tokens (%d bytes) should cost more than auto tokens (%d bytes)", len(explicit), len(auto))
	}
	back, err := colstore.DecodeBinary(schema, bytes.NewReader(auto), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got := back.Token(17); got != "r0018" {
		t.Fatalf("auto token 17 = %q, want r0018", got)
	}
	back2, err := colstore.DecodeBinary(schema, bytes.NewReader(explicit), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got := back2.Token(17); got != "participant-17" {
		t.Fatalf("explicit token 17 = %q, want participant-17", got)
	}
}

// TestBinaryEmptyDatasets pins the nil-vs-empty Responses distinction
// through the binary form (they serialize to different JSON).
func TestBinaryEmptyDatasets(t *testing.T) {
	schema := quiz.Columns()
	ins := quiz.Instrument()
	for _, responses := range [][]survey.Response{nil, {}} {
		ds := &survey.Dataset{Instrument: ins.Title, Version: "1.0", Responses: responses}
		cols, err := colstore.FromSurvey(schema, ds)
		if err != nil {
			t.Fatalf("FromSurvey: %v", err)
		}
		enc := encodeBinary(t, cols, 0)
		back, err := colstore.DecodeBinary(schema, bytes.NewReader(enc), colstore.IOOptions{})
		if err != nil {
			t.Fatalf("nil=%v: DecodeBinary: %v", responses == nil, err)
		}
		want, err := survey.EncodeDataset(ds)
		if err != nil {
			t.Fatalf("EncodeDataset: %v", err)
		}
		var got bytes.Buffer
		if err := back.WriteJSON(&got); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("nil=%v: round trip diverged:\n got %q\nwant %q", responses == nil, got.Bytes(), want)
		}
	}
}

// TestBinaryNilSchemaRebuild checks decoding without a caller schema:
// the question table is rebuilt from the file and the data survives.
func TestBinaryNilSchemaRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 12, false)
	cols, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	enc := encodeBinary(t, cols, 0)
	back, err := colstore.DecodeBinary(nil, bytes.NewReader(enc), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("DecodeBinary(nil schema): %v", err)
	}
	if back.Schema == quiz.Columns() {
		t.Fatalf("nil-schema decode should build a fresh schema")
	}
	var got, want bytes.Buffer
	if err := cols.WriteJSON(&want); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := back.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("nil-schema decode diverged from the source dataset")
	}
}

// TestBinarySchemaMismatch checks that a file for a different
// instrument is rejected with a schema error, not mis-decoded.
func TestBinarySchemaMismatch(t *testing.T) {
	other := colstore.MustSchema(&survey.Instrument{
		Title:   "Some Other Survey",
		Version: "9",
		Sections: []survey.Section{{ID: "s", Title: "s", Questions: []survey.Question{
			{ID: "q1", Kind: survey.Likert, Scale: 5},
		}}},
	})
	enc := encodeBinary(t, other.NewDataset("9", 3), 0)
	_, err := colstore.DecodeBinary(quiz.Columns(), bytes.NewReader(enc), colstore.IOOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatched schema decode: err = %v, want schema mismatch", err)
	}
}

// TestBinaryTruncation cuts a valid file at every framing boundary (and
// a few interior points) and requires a clean error, never a panic or a
// silently short dataset, from every decoder (decodeEveryWay).
func TestBinaryTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := randomDataset(rng, 40, false)
	cols, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	enc := encodeBinary(t, cols, 0)
	cuts := []int{0, 3, 4, 7, 8, 10, len(enc) / 4, len(enc) / 2, len(enc) - 5, len(enc) - 1}
	for _, cut := range cuts {
		if _, err := decodeEveryWay(t, enc[:cut]); err == nil {
			t.Fatalf("cut=%d: truncated file decoded without error", cut)
		}
	}
}

// TestBinaryCorruption flips single bytes across the file and requires
// every corruption to be caught (CRC or validation) by every decoder
// (decodeEveryWay), with the column named when the damage is inside a
// block.
func TestBinaryCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := randomDataset(rng, 64, false)
	cols, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	enc := encodeBinary(t, cols, 0)
	// Skip the magic (its own error) and flip a byte every stride.
	for off := 8; off < len(enc); off += 97 {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0xFF
		d, err := decodeEveryWay(t, bad)
		if err != nil {
			continue
		}
		// A flip that survives decoding must not have changed the data
		// (e.g. a flip inside the length field caught as truncation is an
		// error above; a flip that lands in padding cannot happen — every
		// byte is covered — so require byte-identical JSON).
		var got, want bytes.Buffer
		if err := d.WriteJSON(&got); err != nil {
			t.Fatalf("off=%d: WriteJSON after surviving flip: %v", off, err)
		}
		if err := cols.WriteJSON(&want); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("off=%d: corrupted file decoded to different data without error", off)
		}
	}
}

// TestBinaryTrailingBytes pins that every decoder takes exactly one
// FPDS file: a byte after the end marker, or a second file concatenated
// to the first, is a located size error, not a silently ignored tail.
func TestBinaryTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cols, err := colstore.FromSurvey(quiz.Columns(), randomDataset(rng, 20, false))
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	enc := encodeBinary(t, cols, 0)
	for _, tail := range [][]byte{{0}, enc} {
		data := append(append([]byte(nil), enc...), tail...)
		_, err := decodeEveryWay(t, data)
		want := fmt.Sprintf("colstore: decode binary: file is %d bytes, layout expects %d", len(data), len(enc))
		if err == nil || err.Error() != want {
			t.Fatalf("%d trailing bytes: error %v, want %q", len(tail), err, want)
		}
	}
}

// TestBinaryCorruptBlockCRC targets a column block payload specifically
// and requires the error to name the column and block.
func TestBinaryCorruptBlockCRC(t *testing.T) {
	schema := quiz.Columns()
	cols := schema.NewDataset("1.0", 20)
	// Answer the first truefalse column so its block is nonzero.
	ci := -1
	for i := 0; i < len(quiz.Instrument().Questions()); i++ {
		if schema.Column(i).Kind == survey.TrueFalse {
			ci = i
			break
		}
	}
	if ci < 0 {
		t.Fatal("no truefalse column in the quiz schema")
	}
	for i := 0; i < 20; i++ {
		cols.SetTF(ci, i, colstore.TFTrue)
	}
	enc := encodeBinary(t, cols, 0)
	// The first column's first data byte: locate it by re-encoding with
	// one answer changed and finding the first differing offset.
	cols.SetTF(ci, 0, colstore.TFFalse)
	enc2 := encodeBinary(t, cols, 0)
	off := 0
	for off < len(enc) && enc[off] == enc2[off] {
		off++
	}
	bad := append([]byte(nil), enc...)
	bad[off] ^= 0x55
	_, err := colstore.DecodeBinary(schema, bytes.NewReader(bad), colstore.IOOptions{})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt block decode: err = %v, want a block checksum mismatch", err)
	}
	if !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("corrupt block error should name the block: %v", err)
	}
}

// TestBinaryEncodeAllocsPerRespondent pins the steady-state allocation
// budget: encoding allocates a fixed set of buffers (scratch, section
// builders, writer), not per-respondent garbage.
func TestBinaryEncodeAllocsPerRespondent(t *testing.T) {
	const n = 20000 // > 2 blocks
	schema := quiz.Columns()
	cols := schema.NewDataset("1.0", n)
	allocs := testing.AllocsPerRun(3, func() {
		if err := cols.EncodeBinary(io.Discard, colstore.IOOptions{Workers: 1}); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
	})
	if perResp := allocs / n; perResp > 0.01 {
		t.Fatalf("EncodeBinary allocates %.0f times for %d respondents (%.3f/respondent), want ~0/respondent",
			allocs, n, perResp)
	}
}

// TestBinaryDecodeAllocsPerRespondent pins the decode side the same
// way: the allocation count is a fixed per-file overhead (sections,
// column arrays, codec bookkeeping), not a function of n — growing the
// cohort 20x must not grow the count materially.
func TestBinaryDecodeAllocsPerRespondent(t *testing.T) {
	schema := quiz.Columns()
	decodeAllocs := func(n int) float64 {
		cols := schema.NewDataset("1.0", n)
		var buf bytes.Buffer
		if err := cols.EncodeBinary(&buf, colstore.IOOptions{Workers: 1}); err != nil {
			t.Fatalf("EncodeBinary: %v", err)
		}
		enc := buf.Bytes()
		return testing.AllocsPerRun(3, func() {
			if _, err := colstore.DecodeBinary(schema, bytes.NewReader(enc), colstore.IOOptions{Workers: 1}); err != nil {
				t.Fatalf("DecodeBinary: %v", err)
			}
		})
	}
	small, big := decodeAllocs(2000), decodeAllocs(40000)
	if big > small*1.25+50 {
		t.Fatalf("DecodeBinary allocations scale with n: %.0f at n=2000 vs %.0f at n=40000", small, big)
	}
}

// FuzzDecodeBinary feeds arbitrary bytes to the binary decoder: it must
// never panic, and anything it accepts must re-encode and WriteJSON
// without error (i.e. validation admits only well-formed datasets).
func FuzzDecodeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	schema := quiz.Columns()
	for _, n := range []int{0, 1, 7} {
		ds := randomDataset(rng, n, false)
		cols, err := colstore.FromSurvey(schema, ds)
		if err != nil {
			f.Fatalf("FromSurvey: %v", err)
		}
		var buf bytes.Buffer
		if err := cols.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
			f.Fatalf("EncodeBinary: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("FPDS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := colstore.DecodeBinary(nil, bytes.NewReader(data), colstore.IOOptions{})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
			t.Fatalf("re-encode of accepted file failed: %v", err)
		}
		if err := d.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON of accepted file failed: %v", err)
		}
	})
}

// TestLoadSniffing checks the format-sniffing loader on both
// serializations of the same dataset.
func TestLoadSniffing(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(17))
	ds := randomDataset(rng, 25, false)
	cols, err := colstore.FromSurvey(schema, ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	var wantJSON bytes.Buffer
	if err := cols.WriteJSON(&wantJSON); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	bin := encodeBinary(t, cols, 0)

	for _, tc := range []struct {
		name   string
		data   []byte
		format colstore.Format
	}{
		{"binary", bin, colstore.FormatBinary},
		{"json", wantJSON.Bytes(), colstore.FormatJSON},
	} {
		d, info, err := colstore.Load(schema, bytes.NewReader(tc.data), colstore.IOOptions{})
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		if info.Format != tc.format {
			t.Fatalf("%s: sniffed %v, want %v", tc.name, info.Format, tc.format)
		}
		if info.Bytes < int64(len(tc.data)) {
			t.Fatalf("%s: LoadInfo.Bytes = %d, want >= %d", tc.name, info.Bytes, len(tc.data))
		}
		var got bytes.Buffer
		if err := d.WriteJSON(&got); err != nil {
			t.Fatalf("%s: WriteJSON: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("%s: loaded dataset diverged", tc.name)
		}
	}

	if _, _, err := colstore.Load(schema, strings.NewReader("garbage"), colstore.IOOptions{}); err == nil {
		t.Fatal("Load accepted unrecognizable input")
	}
	if f := colstore.DetectFormat([]byte("  {")); f != colstore.FormatJSON {
		t.Fatalf("DetectFormat(whitespace JSON) = %v", f)
	}
	if f := colstore.DetectFormat([]byte("FPDSxxxx")); f != colstore.FormatBinary {
		t.Fatalf("DetectFormat(FPDS) = %v", f)
	}
}

// TestBinarySizeAdvantage documents the point of the format: the
// binary form of a generated-style cohort is far smaller than its JSON.
func TestBinarySizeAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ds := randomDataset(rng, 500, false)
	cols, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	var js bytes.Buffer
	if err := cols.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	bin := encodeBinary(t, cols, 0)
	if ratio := float64(js.Len()) / float64(len(bin)); ratio < 5 {
		t.Fatalf("binary is only %.1fx smaller than JSON (%d vs %d bytes)", ratio, len(bin), js.Len())
	}
	t.Logf("n=500: json %d bytes, binary %d bytes (%.1fx)", js.Len(), len(bin),
		float64(js.Len())/float64(len(bin)))
}

// TestDecodeAllocBoundedByInput pins that a length or count claiming
// far more than the input holds costs no more than the input. It runs
// the committed FuzzDecodeBinary crashers through every decoder:
//   - section-length-susp: the FPDS preamble, then a header length that
//     reads "susp" (0x70737573, 1.8 GB) and 43 bytes;
//   - header-n-4194304-cut: an n=1 quiz file whose header (its CRC
//     recomputed) claims 4,194,304 respondents, cut 64 bytes into the
//     column data, which once sized every column from that claim
//     (383 MB) before any block arrived.
//
// Every decoder must fail cleanly, allocating at most a few megabytes
// in all (Load's 1 MiB read buffer included).
func TestDecodeAllocBoundedByInput(t *testing.T) {
	const bound = 8 << 20
	for _, name := range []string{"section-length-susp", "header-n-4194304-cut"} {
		data := fuzzInput(t, name)
		path := writeTemp(t, data)
		for _, tc := range []struct {
			name   string
			decode func() error
		}{
			{"DecodeBinary", func() error {
				_, err := colstore.DecodeBinary(nil, bytes.NewReader(data), colstore.IOOptions{})
				return err
			}},
			{"Load", func() error {
				_, _, err := colstore.Load(nil, bytes.NewReader(data), colstore.IOOptions{})
				return err
			}},
			{"LoadFile", func() error {
				_, _, err := colstore.LoadFile(nil, path, colstore.IOOptions{})
				return err
			}},
			{"NewShardReader", func() error {
				_, err := colstore.NewShardReader(nil, bytes.NewReader(data), int64(len(data)), colstore.IOOptions{})
				return err
			}},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s %s: accepted a %d-byte file that claims far more", name, tc.name, len(data))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > bound {
				t.Errorf("%s %s: allocated %d bytes decoding a %d-byte file (bound %d): %v", name, tc.name, got, len(data), bound, err)
			}
		}
	}
}
