package colstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"

	"fpstudy/internal/parallel"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// This file is the FPDS binary shard format: the columnar on-disk twin
// of the in-memory Dataset. Where the JSON form serializes one
// respondent at a time (row-major, ~600 bytes each), FPDS writes each
// column as a run of fixed-width blocks (column-major, 1-13 bytes per
// respondent for the paper's instrument), so a dataset round-trips at
// memory-copy speed instead of JSON-token speed.
//
// # Layout (all integers little-endian)
//
//	magic    "FPDS"
//	uint16   format version (currently 1)
//	uint16   flags (bit 0: auto tokens; bit 1: nil responses slice)
//	section  header — title, dataset version, n, interned question table
//	section  string arena — count, offsets, blob
//	section  tokens — offsets, blob (present only without auto tokens)
//	blocks   per column, in schema order: ceil(n/8192) blocks of
//	         raw codes (uint8 / int32 / uint64 by kind), each
//	         followed by its CRC32
//	section  extras — the multi-choice spill records
//	magic    "SDPF" (end marker: detects truncation after the last CRC)
//
// A "section" is a uint32 length, the payload, and the payload's
// CRC32 (IEEE). Column blocks carry no length prefix: their sizes are
// fully determined by n and the column kind, which is what lets the
// codec address blocks independently and in parallel.
//
// # Parallel codec contract
//
// Block boundaries depend only on n (blockRespondents is a format
// constant), never on the worker count, and every block encodes into —
// or decodes out of — a disjoint byte range computed from its index
// alone. Encoding is therefore byte-identical at any parallelism.
// Decoding has one path, the ShardReader: once the small sections and
// the exact file size check out, every (column, block) pair of the file
// is one work item that reads its bytes by offset and writes each of
// its column elements exactly once (the same index-addressed contract
// the generation path relies on), so the whole file decodes in
// parallel, not one column at a time.
//
// # Integrity
//
// Every payload in the file is covered by a CRC32: a flipped bit
// anywhere is reported with the section (or column and block) that
// failed, and a truncated file fails with a clear error rather than a
// short dataset. Decoding also validates every code against the schema
// (truefalse codes <= 3, Likert levels within scale, option codes and
// arena references in range), so a corrupted-but-CRC-valid file cannot
// plant out-of-range indices that would surface later as panics.

const (
	// binMagic opens every FPDS file; binEndMagic closes it.
	binMagic    = "FPDS"
	binEndMagic = "SDPF"

	// BinaryVersion is the FPDS format version this package writes.
	// Readers reject files with a newer version.
	BinaryVersion = 1

	// blockRespondents is the number of respondents per codec block — a
	// format constant (it shapes the file), not a tuning knob: changing
	// it changes the bytes.
	blockRespondents = 8192

	// BlockRespondents is the exported block size: the unit of
	// block-at-a-time streaming (ShardReader reads, query-engine scans).
	BlockRespondents = blockRespondents

	// Header flag bits.
	flagAutoTokens   = 1 << 0
	flagNilResponses = 1 << 1

	// maxBinaryRespondents bounds the declared respondent count.
	maxBinaryRespondents = 1 << 31
)

// IOOptions configures the binary codec. The zero value is valid:
// default parallelism and no instrumentation.
type IOOptions struct {
	// Workers bounds the codec parallelism (<= 0 means GOMAXPROCS). The
	// worker count never affects the bytes produced or the dataset
	// decoded.
	Workers int
	// BytesWritten / BytesRead, when non-nil, are advanced by the number
	// of bytes the codec writes or reads (the io.bytes_written /
	// io.bytes_read pipeline counters). Purely observational.
	BytesWritten *telemetry.Counter
	BytesRead    *telemetry.Counter
}

// kindCode maps a survey question kind to its wire code.
func kindCode(k survey.Kind) (uint8, error) {
	switch k {
	case survey.TrueFalse:
		return 1, nil
	case survey.Likert:
		return 2, nil
	case survey.SingleChoice:
		return 3, nil
	case survey.MultiChoice:
		return 4, nil
	}
	return 0, fmt.Errorf("colstore: unencodable question kind %q", k)
}

// kindFromCode is the inverse of kindCode.
func kindFromCode(c uint8) (survey.Kind, error) {
	switch c {
	case 1:
		return survey.TrueFalse, nil
	case 2:
		return survey.Likert, nil
	case 3:
		return survey.SingleChoice, nil
	case 4:
		return survey.MultiChoice, nil
	}
	return "", fmt.Errorf("colstore: unknown question kind code %d", c)
}

// colWidth is the per-respondent byte width of a column kind.
func colWidth(k survey.Kind) int {
	switch k {
	case survey.TrueFalse, survey.Likert:
		return 1
	case survey.SingleChoice:
		return 4
	case survey.MultiChoice:
		return 8
	}
	return 0
}

// numBlocks returns the number of codec blocks covering n respondents.
func numBlocks(n int) int { return (n + blockRespondents - 1) / blockRespondents }

// blockBounds returns the half-open respondent range of block b.
func blockBounds(b, n int) (lo, hi int) {
	lo = b * blockRespondents
	hi = lo + blockRespondents
	if hi > n {
		hi = n
	}
	return lo, hi
}

// blockOffset returns the byte offset of block b inside a column's
// encoded region (payloads plus per-block CRCs).
func blockOffset(b, width int) int { return b * (blockRespondents*width + 4) }

// colDataBytes returns the total encoded size of one column: n values
// of the given width plus one CRC per block.
func colDataBytes(n, width int) int {
	return n*width + numBlocks(n)*4
}

// --- little-endian append helpers (encode side).

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v), byte(v>>8))
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(buf []byte, v uint64) []byte {
	buf = appendU32(buf, uint32(v))
	return appendU32(buf, uint32(v>>32))
}

func appendStr(buf []byte, s string) []byte {
	buf = appendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

// writeSection frames payload as length + payload + CRC32.
func writeSection(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(hdr[:])
	return err
}

// autoTokens reports whether every token follows the sequential
// anonymous scheme ("r0001", ...), in which case the file omits the
// token arena and the decoder regenerates them on demand.
func (d *Dataset) autoTokens() bool {
	if d.tokens == nil {
		return true
	}
	var buf []byte
	for i, tok := range d.tokens {
		buf = appendToken(buf[:0], i)
		if string(buf) != tok {
			return false
		}
	}
	return true
}

// countingWriter advances a byte counter alongside the wrapped writer.
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// EncodeBinary writes the dataset in FPDS form. The encoding is
// byte-identical at any opt.Workers (block boundaries and offsets are
// format constants); memory stays bounded by one column's encoded size
// (≤ ~8 MB per million respondents) regardless of n.
func (d *Dataset) EncodeBinary(w io.Writer, opt IOOptions) error {
	cw := &countingWriter{w: w, c: opt.BytesWritten}
	bw := bufio.NewWriterSize(cw, 1<<20)

	auto := d.autoTokens()
	var flags uint16
	if auto {
		flags |= flagAutoTokens
	}
	if d.nilResponses {
		flags |= flagNilResponses
	}
	pre := make([]byte, 0, 8)
	pre = append(pre, binMagic...)
	pre = appendU16(pre, BinaryVersion)
	pre = appendU16(pre, flags)
	if _, err := bw.Write(pre); err != nil {
		return err
	}

	// Header: identity and the interned question table.
	hdr := make([]byte, 0, 1<<12)
	hdr = appendStr(hdr, d.Schema.Title)
	hdr = appendStr(hdr, d.Version)
	hdr = appendU64(hdr, uint64(d.n))
	hdr = appendU32(hdr, uint32(len(d.Schema.cols)))
	for ci := range d.Schema.cols {
		c := &d.Schema.cols[ci]
		kc, err := kindCode(c.Kind)
		if err != nil {
			return err
		}
		hdr = appendStr(hdr, c.ID)
		hdr = append(hdr, kc)
		hdr = appendU16(hdr, uint16(c.Scale))
		if c.AllowOther {
			hdr = append(hdr, 1)
		} else {
			hdr = append(hdr, 0)
		}
		hdr = appendU32(hdr, uint32(len(c.Options)))
		for _, o := range c.Options {
			hdr = appendStr(hdr, o)
		}
	}
	if err := writeSection(bw, hdr); err != nil {
		return err
	}

	// String arena: offsets into one contiguous blob.
	if err := writeSection(bw, appendArena(nil, d.strtab.strs)); err != nil {
		return err
	}

	// Tokens (only when they carry information beyond the auto scheme).
	if !auto {
		if err := writeSection(bw, appendArena(nil, d.tokens)); err != nil {
			return err
		}
	}

	// Column blocks. One scratch buffer holds the widest column's
	// encoded region; blocks encode into disjoint ranges of it in
	// parallel, then the whole region is written in one call.
	nb := numBlocks(d.n)
	scratch := make([]byte, colDataBytes(d.n, 8))
	for ci := range d.Schema.cols {
		c := &d.Schema.cols[ci]
		width := colWidth(c.Kind)
		region := scratch[:colDataBytes(d.n, width)]
		u8col := d.u8[ci]
		i32col := d.code[ci]
		u64col := d.bits[ci]
		parallel.ForEach(opt.Workers, nb, func(b int) {
			t0 := telemetry.Start()
			lo, hi := blockBounds(b, d.n)
			off := blockOffset(b, width)
			payload := region[off : off+(hi-lo)*width]
			switch width {
			case 1:
				copy(payload, u8col[lo:hi])
			case 4:
				for i := lo; i < hi; i++ {
					binary.LittleEndian.PutUint32(payload[(i-lo)*4:], uint32(i32col[i]))
				}
			case 8:
				for i := lo; i < hi; i++ {
					binary.LittleEndian.PutUint64(payload[(i-lo)*8:], u64col[i])
				}
			}
			binary.LittleEndian.PutUint32(region[off+(hi-lo)*width:], crc32.ChecksumIEEE(payload))
			telemetry.Done(telemetry.StageFPDSEncode, b, t0, int64(b), int64(hi-lo))
		})
		if _, err := bw.Write(region); err != nil {
			return err
		}
	}

	// Extras: multi-choice spill records, sorted by respondent index so
	// the encoding is deterministic (the in-memory form is a map).
	ext := make([]byte, 0, 256)
	for ci := range d.Schema.cols {
		m := d.extras[ci]
		ext = appendU32(ext, uint32(len(m)))
		if len(m) == 0 {
			continue
		}
		idxs := make([]int, 0, len(m))
		for i := range m {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			e := m[i]
			ext = appendU32(ext, uint32(i))
			if e.verbatim {
				ext = append(ext, 1)
			} else {
				ext = append(ext, 0)
			}
			ext = appendU32(ext, uint32(len(e.refs)))
			for _, ref := range e.refs {
				ext = appendU32(ext, uint32(ref))
			}
		}
	}
	if err := writeSection(bw, ext); err != nil {
		return err
	}

	if _, err := bw.WriteString(binEndMagic); err != nil {
		return err
	}
	return bw.Flush()
}

// appendArena encodes a string list as count + offsets + blob.
func appendArena(buf []byte, strs []string) []byte {
	buf = appendU32(buf, uint32(len(strs)))
	off := uint32(0)
	buf = appendU32(buf, 0)
	for _, s := range strs {
		off += uint32(len(s))
		buf = appendU32(buf, off)
	}
	for _, s := range strs {
		buf = append(buf, s...)
	}
	return buf
}

// --- Decode side.

// binReader is a cursor over one section payload.
type binReader struct {
	data []byte
	off  int
}

var errShortSection = fmt.Errorf("colstore: decode binary: section payload too short")

func (r *binReader) u8() (uint8, error) {
	if r.off+1 > len(r.data) {
		return 0, errShortSection
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *binReader) u16() (uint16, error) {
	if r.off+2 > len(r.data) {
		return 0, errShortSection
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *binReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, errShortSection
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *binReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, errShortSection
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *binReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.data) {
		return "", errShortSection
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// countingReader advances a byte counter alongside the wrapped reader
// and keeps a local tally for load summaries.
type countingReader struct {
	r io.Reader
	c *telemetry.Counter
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	cr.c.Add(int64(n))
	return n, err
}

// readFull is io.ReadFull with truncation reported as such.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("colstore: decode binary: truncated file: %s cut short", what)
		}
		return fmt.Errorf("colstore: decode binary: %s: %w", what, err)
	}
	return nil
}

// readSection reads one framed section (length + payload + CRC) and
// verifies the checksum. left is the number of bytes the input still
// holds at the length field: a claimed length beyond it fails before
// anything is allocated, so a corrupted length costs nothing.
func readSection(r io.Reader, what string, left int64) ([]byte, error) {
	var hdr [4]byte
	if err := readFull(r, hdr[:], what+" length"); err != nil {
		return nil, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[:]))
	if 8+n > left {
		return nil, fmt.Errorf("colstore: decode binary: truncated file: %s section claims %d bytes, %d left", what, n, max(left-8, 0))
	}
	payload := make([]byte, n)
	if err := readFull(r, payload, what+" payload"); err != nil {
		return nil, err
	}
	if err := readFull(r, hdr[:], what+" checksum"); err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[:]); got != want {
		return nil, fmt.Errorf("colstore: decode binary: %s section checksum mismatch (corrupted file?)", what)
	}
	return payload, nil
}

// readArena decodes a count + offsets + blob string list.
func readArena(r *binReader, what string) ([]string, error) {
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(count) > len(r.data) {
		return nil, fmt.Errorf("colstore: decode binary: %s arena claims %d strings (corrupted count?)", what, count)
	}
	offs := make([]uint32, count+1)
	for i := range offs {
		if offs[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	blobLen := len(r.data) - r.off
	if int(offs[count]) != blobLen {
		return nil, fmt.Errorf("colstore: decode binary: %s arena blob is %d bytes, offsets claim %d", what, blobLen, offs[count])
	}
	blob := string(r.data[r.off:])
	r.off = len(r.data)
	out := make([]string, count)
	for i := range out {
		if offs[i] > offs[i+1] {
			return nil, fmt.Errorf("colstore: decode binary: %s arena offsets not monotonic", what)
		}
		out[i] = blob[offs[i]:offs[i+1]]
	}
	return out, nil
}

// schemaMismatch builds the error for a file whose question table does
// not match the caller's schema.
func schemaMismatch(detail string, args ...any) error {
	return fmt.Errorf("colstore: decode binary: file schema does not match the expected schema: "+detail, args...)
}

// decodedHeader is the parsed header section.
type decodedHeader struct {
	title   string
	version string
	n       int
	qs      []survey.Question
}

// parseHeader decodes the header payload into its question table.
func parseHeader(payload []byte) (*decodedHeader, error) {
	r := &binReader{data: payload}
	h := &decodedHeader{}
	var err error
	if h.title, err = r.str(); err != nil {
		return nil, err
	}
	if h.version, err = r.str(); err != nil {
		return nil, err
	}
	n64, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n64 > maxBinaryRespondents {
		return nil, fmt.Errorf("colstore: decode binary: file claims %d respondents (corrupted header?)", n64)
	}
	h.n = int(n64)
	ncols, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(ncols) > len(payload) {
		return nil, fmt.Errorf("colstore: decode binary: file claims %d columns (corrupted header?)", ncols)
	}
	h.qs = make([]survey.Question, ncols)
	for qi := range h.qs {
		q := &h.qs[qi]
		if q.ID, err = r.str(); err != nil {
			return nil, err
		}
		kc, err := r.u8()
		if err != nil {
			return nil, err
		}
		if q.Kind, err = kindFromCode(kc); err != nil {
			return nil, err
		}
		scale, err := r.u16()
		if err != nil {
			return nil, err
		}
		q.Scale = int(scale)
		ao, err := r.u8()
		if err != nil {
			return nil, err
		}
		q.AllowOther = ao != 0
		nopts, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(nopts) > len(payload) {
			return nil, fmt.Errorf("colstore: decode binary: question %q claims %d options (corrupted header?)", q.ID, nopts)
		}
		for k := 0; k < int(nopts); k++ {
			o, err := r.str()
			if err != nil {
				return nil, err
			}
			q.Options = append(q.Options, o)
		}
	}
	return h, nil
}

// schemaFor resolves the schema a decoded file uses: the caller's
// schema when it matches the file's question table exactly, or a
// schema built from the file when the caller passed nil.
func schemaFor(s *Schema, h *decodedHeader) (*Schema, error) {
	if s == nil {
		ins := &survey.Instrument{
			Title:    h.title,
			Version:  h.version,
			Sections: []survey.Section{{ID: "data", Title: h.title, Questions: h.qs}},
		}
		return NewSchema(ins)
	}
	if s.Title != h.title {
		return nil, schemaMismatch("file instrument is %q, want %q", h.title, s.Title)
	}
	if len(h.qs) != len(s.cols) {
		return nil, schemaMismatch("file has %d questions, want %d", len(h.qs), len(s.cols))
	}
	for qi, q := range h.qs {
		c := &s.cols[qi]
		if q.ID != c.ID || q.Kind != c.Kind || q.Scale != c.Scale || q.AllowOther != c.AllowOther {
			return nil, schemaMismatch("question %d is %q (%s), want %q (%s)", qi, q.ID, q.Kind, c.ID, c.Kind)
		}
		if len(q.Options) != len(c.Options) {
			return nil, schemaMismatch("question %q has %d options, want %d", q.ID, len(q.Options), len(c.Options))
		}
		for k, o := range q.Options {
			if o != c.Options[k] {
				return nil, schemaMismatch("question %q option %d is %q, want %q", q.ID, k, o, c.Options[k])
			}
		}
	}
	return s, nil
}

// DecodeBinary reads an FPDS dataset. When s is non-nil the file's
// question table must match it exactly and the returned dataset hangs
// off s (so cached per-schema grading tables hit); when s is nil the
// schema is rebuilt from the file. The input is read to its end first,
// so memory is bounded by the bytes it really holds, and then decoded
// as LoadFile decodes a file: r must hold exactly one FPDS file, and a
// byte after its end marker is an error. Block checksums are verified
// and every code validated against the schema; decoding is sharded
// across opt.Workers with identical results at any worker count.
func DecodeBinary(s *Schema, r io.Reader, opt IOOptions) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("colstore: decode binary: %w", err)
	}
	return decodeShard(s, bytes.NewReader(data), int64(len(data)), opt)
}

// decodeShard decodes size bytes of FPDS data read through r, the one
// FPDS decoder. The shard reader checks the framing, every small
// section and the exact layout size before a column is allocated, so a
// header that claims more respondents than the input holds fails
// first. Then every (column, block) pair is read straight into its
// column slice in parallel, one BlockScratchBytes scratch per worker;
// the first error in (column, block) order wins.
func decodeShard(s *Schema, r io.ReaderAt, size int64, opt IOOptions) (*Dataset, error) {
	sr, err := openShard(s, r, size, opt, true)
	if err != nil {
		return nil, err
	}
	// The runtime zeroes every column it hands out, tens of
	// milliseconds at n=1M, so the columns are allocated in parallel
	// too.
	d := sr.schema.emptyDataset(sr.version, sr.n)
	parallel.ForEach(opt.Workers, len(sr.schema.cols), d.allocColumn)
	d.nilResponses = sr.nilResponses
	d.tokens = sr.tokens
	if len(sr.arena) > 0 {
		d.strtab.strs = sr.arena
		d.strtab.idx = make(map[string]int32, len(sr.arena))
		for i, str := range sr.arena {
			if _, dup := d.strtab.idx[str]; !dup {
				d.strtab.idx[str] = int32(i)
			}
		}
	}

	nb := numBlocks(sr.n)
	errs := make([]error, len(sr.schema.cols)*nb)
	parallel.ForEachWith(opt.Workers, len(errs),
		func() []byte { return make([]byte, BlockScratchBytes) },
		func(raw []byte, i int) {
			ci, b := i/nb, i%nb
			lo := b * blockRespondents
			var u8d []uint8
			var i32d []int32
			var u64d []uint64
			switch {
			case d.u8[ci] != nil:
				u8d = d.u8[ci][lo:]
			case d.code[ci] != nil:
				i32d = d.code[ci][lo:]
			default:
				u64d = d.bits[ci][lo:]
			}
			_, errs[i] = sr.ReadBlock(ci, b, u8d, i32d, u64d, raw)
		})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for ci, m := range sr.spills {
		for idx, e := range m {
			if e.verbatim && d.bits[ci][idx] != 0 {
				return nil, fmt.Errorf("colstore: decode binary: column %q respondent %d: verbatim spill alongside a nonzero bitset", d.Schema.cols[ci].ID, idx)
			}
		}
	}
	d.extras = sr.spills
	return d, nil
}

// decodeBlockInto verifies one column block's checksum and decodes its
// payload into the destination slice matching the column kind (the
// other two destinations are nil), validating every code against the
// schema. lo is the global respondent index of the block's first row
// (for error messages); destinations are indexed from 0.
func decodeBlockInto(c *Col, arenaLen int, payload []byte, crcWant uint32, b, lo int, u8d []uint8, i32d []int32, u64d []uint64) error {
	if got := crc32.ChecksumIEEE(payload); got != crcWant {
		return fmt.Errorf("colstore: decode binary: column %q block %d: checksum mismatch (corrupted file?)", c.ID, b)
	}
	switch c.Kind {
	case survey.TrueFalse:
		if j := firstAbove(payload, TFDontKnow); j >= 0 {
			return fmt.Errorf("colstore: decode binary: column %q respondent %d: bad truefalse code %d", c.ID, lo+j, payload[j])
		}
		copy(u8d, payload)
	case survey.Likert:
		if j := firstAbove(payload, uint8(c.Scale)); j >= 0 {
			return fmt.Errorf("colstore: decode binary: column %q respondent %d: level %d out of 1..%d", c.ID, lo+j, payload[j], c.Scale)
		}
		copy(u8d, payload)
	case survey.SingleChoice:
		// A code is valid in -arenaLen..len(c.Options): one unsigned
		// compare after shifting that range to start at zero.
		span := uint64(len(c.Options) + arenaLen)
		for j := range i32d {
			v := int32(binary.LittleEndian.Uint32(payload[4*j : 4*j+4]))
			if uint64(int64(v)+int64(arenaLen)) > span {
				return fmt.Errorf("colstore: decode binary: column %q respondent %d: option code %d out of range", c.ID, lo+j, v)
			}
			i32d[j] = v
		}
	case survey.MultiChoice:
		valid := uint64(0)
		if len(c.Options) > 0 {
			valid = ^uint64(0) >> uint(64-len(c.Options))
		}
		for j := range u64d {
			v := binary.LittleEndian.Uint64(payload[8*j : 8*j+8])
			if v&^valid != 0 {
				return fmt.Errorf("colstore: decode binary: column %q respondent %d: bitset selects option %d of %d", c.ID, lo+j, bits.Len64(v&^valid)-1, len(c.Options))
			}
			u64d[j] = v
		}
	}
	return nil
}

// firstAbove returns the index of the first byte of p above limit, or
// -1 if there is none. For a limit below 128 it tests eight bytes at a
// time: with ones = 0x0101…01, a word w holds a byte above limit
// exactly when ((w + ones·(127-limit)) | w) has some byte's top bit
// set. Adding 127-limit sets the top bit of a byte in limit+1..127 and
// leaves it clear, without a carry, in a byte at most limit; a byte
// from 128 up sets it through the OR, so its carry into the next byte
// can only flag a word that is flagged already. A flagged word, and
// every limit from 128 on, goes to the byte loop, which finds the
// first offending byte.
func firstAbove(p []byte, limit uint8) int {
	const ones = 0x0101010101010101
	j := 0
	if limit < 128 {
		add := ones * uint64(127-limit)
		for ; j+8 <= len(p); j += 8 {
			if w := binary.LittleEndian.Uint64(p[j:]); ((w+add)|w)&(ones*0x80) != 0 {
				break
			}
		}
	}
	for ; j < len(p); j++ {
		if p[j] > limit {
			return j
		}
	}
	return -1
}

// parseSpills decodes the extras section payload into per-column spill
// maps without touching a Dataset (the streaming reader keeps them as a
// side table). n bounds respondent indices; arenaLen bounds references.
func parseSpills(s *Schema, n, arenaLen int, payload []byte) ([]map[int]extra, error) {
	r := &binReader{data: payload}
	out := make([]map[int]extra, len(s.cols))
	for ci := range s.cols {
		c := &s.cols[ci]
		count, err := r.u32()
		if err != nil {
			return nil, err
		}
		if count == 0 {
			continue
		}
		if c.Kind != survey.MultiChoice {
			return nil, fmt.Errorf("colstore: decode binary: column %q (%s) carries %d spill records (only multi-choice columns may)", c.ID, c.Kind, count)
		}
		if int(count) > n {
			return nil, fmt.Errorf("colstore: decode binary: column %q claims %d spill records for %d respondents", c.ID, count, n)
		}
		m := make(map[int]extra, count)
		prev := -1
		for k := 0; k < int(count); k++ {
			idx, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(idx) >= n || int(idx) <= prev {
				return nil, fmt.Errorf("colstore: decode binary: column %q spill record %d: respondent index %d out of order or range", c.ID, k, idx)
			}
			prev = int(idx)
			vb, err := r.u8()
			if err != nil {
				return nil, err
			}
			nrefs, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(nrefs) > len(payload) {
				return nil, fmt.Errorf("colstore: decode binary: column %q spill record %d claims %d references", c.ID, k, nrefs)
			}
			refs := make([]int32, nrefs)
			for j := range refs {
				ref, err := r.u32()
				if err != nil {
					return nil, err
				}
				if int(ref) >= arenaLen {
					return nil, fmt.Errorf("colstore: decode binary: column %q respondent %d: arena reference %d out of range (%d strings)", c.ID, idx, ref, arenaLen)
				}
				refs[j] = int32(ref)
			}
			m[int(idx)] = extra{refs: refs, verbatim: vb != 0}
		}
		out[ci] = m
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("colstore: decode binary: %d trailing bytes after extras", len(payload)-r.off)
	}
	return out, nil
}

// Anonymize drops explicit respondent tokens, reverting to the
// sequential anonymous scheme ("r0001", ...) — the same tokens
// survey.Dataset.Anonymize assigns, so the row views agree.
func (d *Dataset) Anonymize() { d.tokens = nil }
