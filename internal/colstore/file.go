package colstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"
)

// Format identifies a dataset serialization.
type Format int

const (
	// FormatUnknown is returned when sniffing fails.
	FormatUnknown Format = iota
	// FormatJSON is the row-oriented survey JSON form.
	FormatJSON
	// FormatBinary is the columnar FPDS shard form.
	FormatBinary
)

// String names the format the way the tools spell it in flags.
func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatBinary:
		return "binary"
	}
	return "unknown"
}

// BinaryExt is the conventional file extension for FPDS shards.
const BinaryExt = ".fpds"

// DetectFormat sniffs a dataset's serialization from its leading bytes:
// the FPDS magic means binary, anything starting with JSON whitespace
// or '{' means JSON.
func DetectFormat(head []byte) Format {
	if len(head) >= len(binMagic) && string(head[:len(binMagic)]) == binMagic {
		return FormatBinary
	}
	for _, b := range head {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return FormatJSON
		default:
			return FormatUnknown
		}
	}
	return FormatUnknown
}

// LoadInfo describes one completed dataset load.
type LoadInfo struct {
	Format  Format
	Bytes   int64
	Elapsed time.Duration
}

// Load sniffs r's format and decodes it with the matching codec (see
// DecodeBinary for the schema contract; pass a nil schema to accept
// whatever instrument the file declares — JSON loading then fails,
// since the row form cannot be interpreted without one). An FPDS input
// is read to its end, as DecodeBinary reads it. LoadInfo.Bytes counts
// every byte read from r.
func Load(s *Schema, r io.Reader, opt IOOptions) (*Dataset, LoadInfo, error) {
	start := time.Now()
	cr := &countingReader{r: r, c: opt.BytesRead}
	br := bufio.NewReaderSize(cr, 1<<20)
	head, err := br.Peek(len(binMagic))
	if err != nil && err != io.EOF {
		return nil, LoadInfo{}, fmt.Errorf("colstore: load: %w", err)
	}
	info := LoadInfo{Format: DetectFormat(head)}
	var d *Dataset
	switch info.Format {
	case FormatBinary:
		// The counting reader above already counts every byte, so hand
		// DecodeBinary no counter of its own.
		d, err = DecodeBinary(s, br, IOOptions{Workers: opt.Workers})
	case FormatJSON:
		if s == nil {
			return nil, LoadInfo{}, fmt.Errorf("colstore: load: JSON datasets need a schema to decode against")
		}
		d, err = DecodeJSON(s, br)
	default:
		return nil, LoadInfo{}, fmt.Errorf("colstore: load: unrecognized dataset format (leading bytes %q)", head)
	}
	if err != nil {
		return nil, LoadInfo{}, err
	}
	info.Bytes = cr.n
	info.Elapsed = time.Since(start)
	return d, info, nil
}

// LoadFile opens path and loads it, reporting the exact on-disk size.
// An FPDS file is decoded in place by positioned reads (decodeShard),
// its size bounding every claimed length before anything is allocated;
// any other file goes through Load.
func LoadFile(s *Schema, path string, opt IOOptions) (*Dataset, LoadInfo, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, LoadInfo{}, err
	}
	head := make([]byte, len(binMagic))
	k, err := f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return nil, LoadInfo{}, fmt.Errorf("%s: colstore: load: %w", path, err)
	}
	var d *Dataset
	info := LoadInfo{Format: DetectFormat(head[:k])}
	if info.Format == FormatBinary {
		d, err = decodeShard(s, f, st.Size(), opt)
	} else {
		d, info, err = Load(s, f, opt)
	}
	if err != nil {
		return nil, LoadInfo{}, fmt.Errorf("%s: %w", path, err)
	}
	info.Bytes = st.Size()
	info.Elapsed = time.Since(start)
	return d, info, nil
}
