package colstore_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
)

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.fpds")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fuzzInput reads a committed FuzzDecodeBinary corpus entry (the
// "go test fuzz v1" form holding one []byte literal).
func fuzzInput(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeBinary", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a one-value []byte corpus entry", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// parityDataset builds an n-respondent quiz cohort with free text,
// multi-choice spills (verbatim ones included) and, when n > 2, a few
// explicit tokens.
func parityDataset(t *testing.T, rng *rand.Rand, n int) *colstore.Dataset {
	t.Helper()
	cols := randomColumns(t, rng, n, false)
	tokens := map[int]string{}
	for i := 0; i < n; i += 1 + n/3 {
		tokens[i] = fmt.Sprintf("participant-%d", i)
	}
	cols.SetTokens(tokens)
	return cols
}

// jsonDigest returns the sha256 of d's WriteJSON output.
func jsonDigest(t *testing.T, d *colstore.Dataset) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := d.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestDecoderParity decodes the same file through every entry point —
// LoadFile at workers 1, 2 and 7, DecodeBinary, Load, and OpenShard
// with ReadBlock — around the block edges, and requires each to give
// back the dataset that was encoded: the same re-encoded bytes and the
// same JSON, or, for the streaming reader, the same column blocks,
// spill records and arena.
func TestDecoderParity(t *testing.T) {
	schema := quiz.Columns()
	rng := rand.New(rand.NewSource(41))
	type dataset struct {
		name string
		cols *colstore.Dataset
	}
	var cases []dataset
	for _, nilResponses := range []bool{true, false} {
		cols, err := colstore.DecodeJSON(schema, bytes.NewReader(emptyJSON(nilResponses)))
		if err != nil {
			t.Fatalf("DecodeJSON: %v", err)
		}
		cases = append(cases, dataset{fmt.Sprintf("n=0 nil=%v", nilResponses), cols})
	}
	b := colstore.BlockRespondents
	for _, n := range []int{1, b - 1, b, b + 1, 3*b + 5} {
		cases = append(cases, dataset{fmt.Sprintf("n=%d", n), parityDataset(t, rng, n)})
	}

	for _, tc := range cases {
		enc := encodeBinary(t, tc.cols, 0)
		wantJSON := jsonDigest(t, tc.cols)
		path := writeTemp(t, enc)
		check := func(route string, d *colstore.Dataset, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, route, err)
			}
			if got := encodeBinary(t, d, 0); !bytes.Equal(got, enc) {
				t.Errorf("%s %s: re-encoded bytes differ", tc.name, route)
			}
			if jsonDigest(t, d) != wantJSON {
				t.Errorf("%s %s: JSON differs", tc.name, route)
			}
		}
		for _, w := range []int{1, 2, 7} {
			d, info, err := colstore.LoadFile(schema, path, colstore.IOOptions{Workers: w})
			check(fmt.Sprintf("LoadFile workers=%d", w), d, err)
			if info.Bytes != int64(len(enc)) || info.Format != colstore.FormatBinary {
				t.Errorf("%s: LoadFile info = %+v, want %d binary bytes", tc.name, info, len(enc))
			}
		}
		d, err := colstore.DecodeBinary(schema, bytes.NewReader(enc), colstore.IOOptions{})
		check("DecodeBinary", d, err)
		d, _, err = colstore.Load(schema, bytes.NewReader(enc), colstore.IOOptions{})
		check("Load", d, err)

		sr, err := colstore.OpenShard(schema, path, colstore.IOOptions{})
		if err != nil {
			t.Fatalf("%s OpenShard: %v", tc.name, err)
		}
		streamed := schema.NewDataset(sr.Version(), sr.Len())
		raw := make([]byte, colstore.BlockScratchBytes)
		for ci := 0; ci < schema.NumColumns(); ci++ {
			for lo := 0; lo < sr.Len(); lo += b {
				u8, i32, u64 := streamed.RawU8(ci), streamed.RawI32(ci), streamed.RawU64(ci)
				if u8 != nil {
					u8 = u8[lo:]
				}
				if i32 != nil {
					i32 = i32[lo:]
				}
				if u64 != nil {
					u64 = u64[lo:]
				}
				if _, err := sr.ReadBlock(ci, lo/b, u8, i32, u64, raw); err != nil {
					t.Fatalf("%s ReadBlock(%d, %d): %v", tc.name, ci, lo/b, err)
				}
			}
			if !reflect.DeepEqual(streamed.RawU8(ci), tc.cols.RawU8(ci)) ||
				!reflect.DeepEqual(streamed.RawI32(ci), tc.cols.RawI32(ci)) ||
				!reflect.DeepEqual(streamed.RawU64(ci), tc.cols.RawU64(ci)) {
				t.Errorf("%s: streamed column %d differs", tc.name, ci)
			}
			if !reflect.DeepEqual(sr.MultiSpills(ci), tc.cols.MultiSpills(ci)) {
				t.Errorf("%s: streamed spills of column %d differ", tc.name, ci)
			}
		}
		if len(sr.ArenaStrings())+len(tc.cols.ArenaStrings()) > 0 &&
			!reflect.DeepEqual(sr.ArenaStrings(), tc.cols.ArenaStrings()) {
			t.Errorf("%s: streamed arena differs", tc.name)
		}
		sr.Close()
	}
}

// decodeEveryWay decodes data through DecodeBinary, Load and LoadFile
// and requires the three to agree: the same located error (LoadFile's
// prefixed by its path), or datasets that re-encode to the same bytes.
// It returns DecodeBinary's result.
func decodeEveryWay(t *testing.T, data []byte) (*colstore.Dataset, error) {
	t.Helper()
	schema := quiz.Columns()
	path := writeTemp(t, data)
	want, wantErr := colstore.DecodeBinary(schema, bytes.NewReader(data), colstore.IOOptions{})
	loaded, _, loadErr := colstore.Load(schema, bytes.NewReader(data), colstore.IOOptions{})
	filed, _, fileErr := colstore.LoadFile(schema, path, colstore.IOOptions{Workers: 3})
	if wantErr == nil {
		if loadErr != nil || fileErr != nil {
			t.Fatalf("DecodeBinary accepted %d bytes, Load: %v, LoadFile: %v", len(data), loadErr, fileErr)
		}
		enc := encodeBinary(t, want, 0)
		if !bytes.Equal(encodeBinary(t, loaded, 0), enc) || !bytes.Equal(encodeBinary(t, filed, 0), enc) {
			t.Fatalf("Load or LoadFile decoded %d bytes to a different dataset", len(data))
		}
		return want, nil
	}
	msg := wantErr.Error()
	if len(data) < len("FPDS") {
		// Too short to sniff: the loaders cannot tell the format.
		msg = fmt.Sprintf("colstore: load: unrecognized dataset format (leading bytes %q)", data)
	}
	if !strings.HasPrefix(msg, "colstore: decode binary: ") && !strings.HasPrefix(msg, "colstore: load: ") {
		t.Errorf("error is not located: %v", wantErr)
	}
	if loadErr == nil || loadErr.Error() != msg {
		t.Errorf("Load error %v, want %q", loadErr, msg)
	}
	if fileErr == nil || fileErr.Error() != path+": "+msg {
		t.Errorf("LoadFile error %v, want %q", fileErr, path+": "+msg)
	}
	return nil, wantErr
}

// TestLoadFileAllocBoundedByColumns pins that a whole-file decode
// allocates the columns and little else: at n=200,000 the TotalAlloc
// delta of LoadFile stays within 5% of the column bytes plus 1 MB (one
// block scratch per worker, the small sections and the head reader).
func TestLoadFileAllocBoundedByColumns(t *testing.T) {
	const n = 200_000
	schema := quiz.Columns()
	cols := schema.NewDataset("1.0", n)
	path := writeTemp(t, encodeBinary(t, cols, 0))
	colBytes := 0
	for ci := 0; ci < schema.NumColumns(); ci++ {
		colBytes += len(cols.RawU8(ci)) + 4*len(cols.RawI32(ci)) + 8*len(cols.RawU64(ci))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, _, err := colstore.LoadFile(schema, path, colstore.IOOptions{Workers: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != n {
		t.Fatalf("loaded %d respondents, want %d", d.Len(), n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if bound := uint64(float64(colBytes)*1.05) + 1<<20; got > bound {
		t.Fatalf("LoadFile allocated %d bytes for %d column bytes (bound %d)", got, colBytes, bound)
	}
}

// BenchmarkLoadFile times the whole-file FPDS decode that fpreport
// -data runs, on a generated n=1,000,000 cohort written to a temporary
// file (about 83 MB).
func BenchmarkLoadFile(b *testing.B) {
	const n = 1_000_000
	cols := respondent.GenerateMainColumnar(1, n, 0, nil, respondent.Instrumentation{}).Cols
	var buf bytes.Buffer
	if err := cols.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	path := writeTemp(b, buf.Bytes())
	schema := cols.Schema
	buf, cols = bytes.Buffer{}, nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := colstore.LoadFile(schema, path, colstore.IOOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if d.Len() != n {
			b.Fatalf("loaded %d respondents, want %d", d.Len(), n)
		}
	}
}
