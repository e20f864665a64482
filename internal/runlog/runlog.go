// Package runlog is the structured run ledger of the pipeline CLIs:
// every invocation of fpgen, fpreport and fpsurvey run with -runlog
// (or $FPSTUDY_RUNLOG) appends one JSONL record — command and
// arguments, host fingerprint, VCS revision, wall and per-stage
// durations, latency quantiles, key counters, golden hashes when
// computed, and exit status — to a configurable ledger file. It is the
// repository's one structured run record: `fpstat trend` reads it to
// separate genuine drift from host noise.
//
// # Determinism contract
//
// The ledger observes runs; it never participates in them. A record
// is assembled from telemetry snapshots after the pipeline output is
// complete and appended on exit, so ledger on/off cannot move a
// single output byte (internal/core.TestGoldenRunlogInvariance pins
// this, mirroring the telemetry-invariance gates).
//
// # File format
//
// One JSON object per line, append-only (O_APPEND, so concurrent
// writers interleave whole lines). Readers must tolerate a truncated
// final line: a crashed writer may leave one, and a ledger is too
// valuable to abandon over its last record. Read skips unparsable and
// overlong lines and reports how many it skipped.
package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"fpstudy/internal/telemetry"
)

// Schema is the ledger record version this package writes. Readers
// accept any version (unknown fields are ignored; missing fields are
// zero), so mixed-version ledgers parse.
//
// History:
//
//	1 — initial: tool/args/timestamp/host/vcs/wall_seconds/stages/
//	    latency/counters/golden/exit_status.
const Schema = 1

// Host is the machine fingerprint stamped on every record.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// SerialHost tags records taken with GOMAXPROCS=1, where every
	// worker count degenerates to a serial run: their parallel timings
	// are not comparable to a multi-core host's.
	SerialHost bool `json:"serial_host,omitempty"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SerialHost: runtime.GOMAXPROCS(0) == 1,
	}
}

// Key renders the fingerprint compactly for grouping and display
// ("linux/amd64 cpu=8 procs=8 go1.24.0", with " serial" appended on
// serial hosts). Two hosts with equal keys are comparable for
// benchmarking purposes.
func (h Host) Key() string {
	k := fmt.Sprintf("%s/%s cpu=%d procs=%d %s", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if h.SerialHost {
		k += " serial"
	}
	return k
}

// Stage is one flattened span-tree node: Name is the slash-joined
// path from the root ("generate-main/draw-profiles"), Seconds its
// wall duration, SelfSeconds the duration not covered by children,
// Items the processed-item count.
type Stage struct {
	Name        string  `json:"name"`
	Seconds     float64 `json:"seconds"`
	SelfSeconds float64 `json:"self_seconds"`
	Items       int64   `json:"items,omitempty"`
}

// StageLatency is the quantile summary of one latency histogram.
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	P50NS  float64 `json:"p50_ns"`
	P90NS  float64 `json:"p90_ns"`
	P99NS  float64 `json:"p99_ns"`
	P999NS float64 `json:"p999_ns"`
}

// Record is one ledger line: everything needed to audit what a CLI
// invocation did, where it ran, and how its time was spent.
type Record struct {
	Schema    int      `json:"schema"`
	Tool      string   `json:"tool"`
	Args      []string `json:"args,omitempty"`
	Timestamp string   `json:"timestamp"` // RFC3339, invocation start
	Host      Host     `json:"host"`
	// VCS identifies the source revision the binary was built from
	// (runtime/debug.ReadBuildInfo); nil when the binary carries no VCS
	// stamp (go run, test binaries).
	VCS         *VCS    `json:"vcs,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	ExitStatus  int     `json:"exit_status"`
	// Stages is the flattened span tree of the run (depth-first,
	// slash-joined paths).
	Stages []Stage `json:"stages,omitempty"`
	// Latency carries every latency-histogram quantile table the run
	// recorded, stage names without their "latency." prefix.
	Latency []StageLatency `json:"latency,omitempty"`
	// Counters is the final value of every nonzero registry counter.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Golden holds content hashes computed during the run (e.g. the
	// sha256 of a dataset fpgen emitted), keyed by artifact name, so a
	// ledger line can later prove two runs produced identical bytes.
	Golden map[string]string `json:"golden,omitempty"`
}

// FlattenSpans converts a span forest into depth-first Stage rows
// with slash-joined paths. SelfSeconds subtracts the children's
// seconds (clamped at zero against clock skew), so summing SelfSeconds
// over a subtree approximates its root without double counting.
func FlattenSpans(spans []telemetry.SpanSnapshot) []Stage {
	var out []Stage
	var walk func(prefix string, s telemetry.SpanSnapshot)
	walk = func(prefix string, s telemetry.SpanSnapshot) {
		name := s.Name
		if prefix != "" {
			name = prefix + "/" + s.Name
		}
		self := s.Seconds
		for _, c := range s.Children {
			self -= c.Seconds
		}
		if self < 0 {
			self = 0
		}
		out = append(out, Stage{Name: name, Seconds: s.Seconds, SelfSeconds: self, Items: s.Items})
		for _, c := range s.Children {
			walk(name, c)
		}
	}
	for _, s := range spans {
		walk("", s)
	}
	return out
}

// latencyRows converts a snapshot's latency map into sorted ledger
// rows, dropping empty histograms and the "latency." prefix.
func latencyRows(lats map[string]telemetry.LatencySnapshot) []StageLatency {
	names := make([]string, 0, len(lats))
	for name := range lats {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []StageLatency
	for _, name := range names {
		ls := lats[name]
		if ls.Count == 0 {
			continue
		}
		out = append(out, StageLatency{
			Stage: strings.TrimPrefix(name, "latency."), Count: ls.Count,
			P50NS: ls.P50NS, P90NS: ls.P90NS, P99NS: ls.P99NS, P999NS: ls.P999NS,
		})
	}
	return out
}

// Run accumulates one CLI invocation's ledger record. Start it first
// thing in main, call SetGolden as artifacts are hashed, and Finish
// exactly once on every exit path (the CLIs route os.Exit through a
// helper that does). The nil *Run accepts every method as a no-op, so
// an invocation with no ledger configured costs nothing.
type Run struct {
	path  string
	rec   Record
	start time.Time
	reg   *telemetry.Registry
	trec  *telemetry.Recorder
}

// Start opens a ledger run for the tool. path is the ledger file
// ("" disables: returns nil, and every later call no-ops). args are
// the invocation's command-line arguments. reg/trec supply the
// counters, latency tables, and span forest at Finish time; either
// may be nil.
func Start(path, tool string, args []string, reg *telemetry.Registry, trec *telemetry.Recorder) *Run {
	if path == "" {
		return nil
	}
	return &Run{
		path: path,
		rec: Record{
			Schema:    Schema,
			Tool:      tool,
			Args:      args,
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			Host:      CurrentHost(),
			VCS:       CurrentVCS(),
		},
		start: time.Now(),
		reg:   reg,
		trec:  trec,
	}
}

// SetGolden records a content hash computed during the run (no-op on
// nil).
func (r *Run) SetGolden(name, hash string) {
	if r == nil {
		return
	}
	if r.rec.Golden == nil {
		r.rec.Golden = map[string]string{}
	}
	r.rec.Golden[name] = hash
}

// Finish assembles the record (wall time, exit status, stage tree,
// latency quantiles, nonzero counters) and appends it to the ledger.
// Errors go to stderr rather than the caller: a full disk must not
// turn a successful pipeline run into a failure. No-op on nil; safe
// to call at most once per Run.
func (r *Run) Finish(exitStatus int) {
	if r == nil {
		return
	}
	r.rec.WallSeconds = time.Since(r.start).Seconds()
	r.rec.ExitStatus = exitStatus
	r.rec.Stages = FlattenSpans(r.trec.Spans())
	snap := r.reg.Snapshot()
	r.rec.Latency = latencyRows(snap.Latencies)
	if len(snap.Counters) > 0 {
		counters := make(map[string]int64, len(snap.Counters))
		for name, v := range snap.Counters {
			if v != 0 {
				counters[name] = v
			}
		}
		if len(counters) > 0 {
			r.rec.Counters = counters
		}
	}
	if err := Append(r.path, r.rec); err != nil {
		fmt.Fprintf(os.Stderr, "runlog: %v\n", err)
	}
}

// Append writes one record as a JSONL line (O_APPEND: concurrent
// appenders interleave whole lines; an existing ledger is never
// rewritten).
func Append(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// maxLine caps a ledger line. Read skips a longer line instead of
// buffering it: no record the CLIs write comes near it.
const maxLine = 1 << 24

// Read parses a ledger file, oldest first, tolerantly: blank lines,
// malformed lines, lines over maxLine bytes, and a truncated final
// line (no trailing newline, e.g. from a crashed writer) are skipped
// and counted, never fatal — a ledger accretes across many runs and
// one bad line must not make the rest unreadable. Only open/read I/O
// errors are returned.
func Read(path string) (recs []Record, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var line []byte
	overlong := false
	for {
		chunk, rerr := br.ReadSlice('\n')
		if !overlong && len(line)+len(chunk) > maxLine+1 { // +1: the newline
			overlong, line = true, line[:0]
		}
		if !overlong {
			line = append(line, chunk...)
		}
		if rerr == bufio.ErrBufferFull {
			continue // the line goes on
		}
		if rerr != nil && rerr != io.EOF {
			return nil, 0, rerr
		}
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		var rec Record
		switch {
		case overlong:
			skipped++
		case len(line) == 0:
		case json.Unmarshal(line, &rec) != nil:
			skipped++
		default:
			recs = append(recs, rec)
		}
		if rerr == io.EOF {
			return recs, skipped, nil
		}
		line, overlong = line[:0], false
	}
}
