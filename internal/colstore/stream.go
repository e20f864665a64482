package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// ShardReader is random block-at-a-time access to an FPDS shard, and
// the one FPDS decoder: DecodeBinary, Load and LoadFile read whole
// files through it (decodeShard). Opening a shard parses only the small
// sections (header, string arena, tokens, spill records), checks the
// end marker and the exact file size, and computes the byte offset of
// every column block from the format's fixed layout; column data is
// then read on demand, one 8192-respondent block at a time, with CRC
// verification and code validation. A query over an n=10M cohort
// therefore touches disk only for the columns it binds and holds only
// workers × bound-columns × one block in memory.
//
// ShardReader is safe for concurrent ReadBlock calls (it reads through
// an io.ReaderAt and mutates nothing after Open).
type ShardReader struct {
	r      io.ReaderAt
	closer io.Closer

	schema       *Schema
	version      string
	n            int
	nilResponses bool
	arena        []string
	tokens       []string        // kept only for a whole-file decode
	spills       []map[int]extra // per column; nil when none
	colOff       []int64         // file offset of each column's block region

	bytesRead *telemetry.Counter
}

// OpenShard opens an FPDS file for streaming block reads. When s is
// non-nil the file's question table must match it exactly (as in
// DecodeBinary); the returned reader must be closed.
func OpenShard(s *Schema, path string, opt IOOptions) (*ShardReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sr, err := NewShardReader(s, f, fi.Size(), opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.closer = f
	return sr, nil
}

// NewShardReader builds a streaming reader over size bytes of FPDS
// data accessible through r. It parses the header, string arena,
// token, and extras sections eagerly (they are small), verifies the
// end marker and total size, and computes every column's block-region
// offset; no column data is read until ReadBlock.
func NewShardReader(s *Schema, r io.ReaderAt, size int64, opt IOOptions) (*ShardReader, error) {
	return openShard(s, r, size, opt, false)
}

// openShard is NewShardReader; keepTokens keeps the explicit token
// arena for a whole-file decode (a streaming reader only checks it).
// The small sections are read through one buffered head reader whose
// read-ahead is not counted: the counter advances by the bytes the
// decoder consumes, so opening a shard and reading every block counts
// the file's length exactly.
func openShard(s *Schema, r io.ReaderAt, size int64, opt IOOptions, keepTokens bool) (*ShardReader, error) {
	cr := &countingReader{r: bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 1<<16), c: opt.BytesRead}

	pre := make([]byte, 8)
	if err := readFull(cr, pre, "file preamble"); err != nil {
		return nil, err
	}
	if string(pre[:4]) != binMagic {
		return nil, fmt.Errorf("colstore: decode binary: not an FPDS file (bad magic %q)", pre[:4])
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != BinaryVersion {
		return nil, fmt.Errorf("colstore: decode binary: unsupported format version %d (this build reads version %d)", v, BinaryVersion)
	}
	flags := binary.LittleEndian.Uint16(pre[6:8])

	hdrPayload, err := readSection(cr, "header", size-cr.n)
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(hdrPayload)
	if err != nil {
		return nil, err
	}
	schema, err := schemaFor(s, h)
	if err != nil {
		return nil, err
	}

	sr := &ShardReader{r: r, schema: schema, version: h.version, n: h.n,
		nilResponses: flags&flagNilResponses != 0, bytesRead: opt.BytesRead}

	arenaPayload, err := readSection(cr, "string arena", size-cr.n)
	if err != nil {
		return nil, err
	}
	ar := &binReader{data: arenaPayload}
	if sr.arena, err = readArena(ar, "string"); err != nil {
		return nil, err
	}

	if flags&flagAutoTokens == 0 {
		// Tokens carry no analytical content; a streaming reader only
		// checks them and skips past.
		tokPayload, err := readSection(cr, "tokens", size-cr.n)
		if err != nil {
			return nil, err
		}
		tr := &binReader{data: tokPayload}
		toks, err := readArena(tr, "token")
		if err != nil {
			return nil, err
		}
		if len(toks) != h.n {
			return nil, fmt.Errorf("colstore: decode binary: token arena has %d entries, want %d", len(toks), h.n)
		}
		if keepTokens {
			sr.tokens = toks
		}
	}

	// The column regions start where the head sections end; every block
	// offset inside them is a pure function of n and the column kinds.
	off := cr.n
	sr.colOff = make([]int64, len(schema.cols))
	for ci := range schema.cols {
		sr.colOff[ci] = off
		off += int64(colDataBytes(h.n, colWidth(schema.cols[ci].Kind)))
	}

	extPayload, err := readSection(io.NewSectionReader(r, off, size-off), "extras", size-off)
	if err != nil {
		return nil, err
	}
	if sr.spills, err = parseSpills(schema, h.n, len(sr.arena), extPayload); err != nil {
		return nil, err
	}
	off += int64(len(extPayload)) + 8

	end := make([]byte, 4)
	if _, err := r.ReadAt(end, off); err != nil {
		return nil, fmt.Errorf("colstore: decode binary: truncated file: end marker cut short")
	}
	if opt.BytesRead != nil {
		opt.BytesRead.Add(int64(len(extPayload)) + 8 + 4)
	}
	if string(end) != binEndMagic {
		return nil, fmt.Errorf("colstore: decode binary: bad end marker %q (truncated or corrupted file?)", end)
	}
	if got := off + 4; got != size {
		return nil, fmt.Errorf("colstore: decode binary: file is %d bytes, layout expects %d", size, got)
	}
	return sr, nil
}

// Close releases the underlying file (no-op for readers constructed
// over a caller-owned io.ReaderAt).
func (sr *ShardReader) Close() error {
	if sr.closer != nil {
		return sr.closer.Close()
	}
	return nil
}

// Schema returns the shard's schema (the caller's when it matched).
func (sr *ShardReader) Schema() *Schema { return sr.schema }

// Len returns the number of respondents in the shard.
func (sr *ShardReader) Len() int { return sr.n }

// ArenaStrings returns the shard's string arena. Read-only.
func (sr *ShardReader) ArenaStrings() []string { return sr.arena }

// MultiSpills returns the spill records of one multi-choice column,
// keyed by respondent index (nil when the column has none).
func (sr *ShardReader) MultiSpills(ci int) map[int]MultiSpill {
	m := sr.spills[ci]
	if len(m) == 0 {
		return nil
	}
	out := make(map[int]MultiSpill, len(m))
	for i, e := range m {
		out[i] = MultiSpill{Refs: e.refs, Verbatim: e.verbatim}
	}
	return out
}

// BlockScratchBytes is the raw-buffer size ReadBlock needs: one block
// of the widest column plus its CRC.
const BlockScratchBytes = blockRespondents*8 + 4

// ReadBlock reads, verifies, and decodes block b of column ci into the
// destination slice matching the column's kind (u8d for truefalse and
// Likert, i32d for single choice, u64d for multi choice; the others
// may be nil), returning the number of respondents decoded. raw is the
// caller's scratch for the on-disk bytes (≥ BlockScratchBytes; reuse
// it across calls). Safe for concurrent use with distinct scratch.
func (sr *ShardReader) ReadBlock(ci, b int, u8d []uint8, i32d []int32, u64d []uint64, raw []byte) (int, error) {
	t0 := telemetry.Start()
	c := &sr.schema.cols[ci]
	width := colWidth(c.Kind)
	lo, hi := blockBounds(b, sr.n)
	if lo >= hi {
		return 0, fmt.Errorf("colstore: shard read: column %q block %d out of range", c.ID, b)
	}
	nb := (hi-lo)*width + 4
	buf := raw[:nb]
	if _, err := sr.r.ReadAt(buf, sr.colOff[ci]+int64(blockOffset(b, width))); err != nil {
		return 0, fmt.Errorf("colstore: shard read: column %q block %d: %w", c.ID, b, err)
	}
	if sr.bytesRead != nil {
		sr.bytesRead.Add(int64(nb))
	}
	payload := buf[:(hi-lo)*width]
	crcWant := binary.LittleEndian.Uint32(buf[(hi-lo)*width:])
	switch c.Kind {
	case survey.TrueFalse, survey.Likert:
		u8d = u8d[:hi-lo]
		i32d, u64d = nil, nil
	case survey.SingleChoice:
		i32d = i32d[:hi-lo]
		u8d, u64d = nil, nil
	case survey.MultiChoice:
		u64d = u64d[:hi-lo]
		u8d, i32d = nil, nil
	}
	if err := decodeBlockInto(c, len(sr.arena), payload, crcWant, b, lo, u8d, i32d, u64d); err != nil {
		return 0, err
	}
	telemetry.Done(telemetry.StageFPDSDecode, b, t0, int64(b), int64(hi-lo))
	return hi - lo, nil
}
