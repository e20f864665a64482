package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the structured event-tracing layer: where the metrics
// registry answers "how much, in aggregate", the tracer answers "where
// did the time go, per worker, per shard, per stage, over time". Events
// are compact fixed-size records written into fixed-capacity per-lane
// ring buffers; when a lane overflows, the oldest events are silently
// overwritten — recording never blocks a worker and never allocates.
// The whole layer follows the package's determinism contract: it
// observes timestamps and counts, never pipeline data, so traced runs
// are byte-identical to untraced ones
// (internal/core.TestGoldenTelemetryInvariance pins this).
//
// Like the stage probe, the process-wide tracer lives behind one atomic
// pointer: with no tracer installed, every Emit* call is a single
// pointer load and a branch — zero allocations, pinned by
// TestEmitDisabledZeroAlloc via testing.AllocsPerRun.

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvStage is a completed pipeline-level stage of the probe's
	// stage table (generate, draw-profiles, calibrate,
	// sample-responses, grade, write, report, …), on lane 0. Arg1 is
	// the stage's item count.
	EvStage EventKind = 1 + iota
	// EvWorker is one worker goroutine's busy window inside a
	// parallel.ForEach fan-out. Arg1 is the worker index.
	EvWorker
	// EvShard is one fixed-width shard execution inside
	// parallel.MapShards. Arg1 is the shard index, Arg2 the
	// shard's item count. The lane identifies the executing worker.
	EvShard
	// EvBatch is one scoring/grading batch. Arg1 is the batch's item
	// count.
	EvBatch
	// EvGC marks an observed garbage-collection cycle (sampled by
	// StartMemSampler). Arg1 is the cumulative GC count, Arg2 the
	// cumulative pause total in nanoseconds.
	EvGC
)

// String returns the kind's wire name ("stage", "worker", …).
func (k EventKind) String() string {
	switch k {
	case EvStage:
		return "stage"
	case EvWorker:
		return "worker"
	case EvShard:
		return "shard"
	case EvBatch:
		return "batch"
	case EvGC:
		return "gc"
	}
	return "unknown"
}

// TraceEvent is one compact trace record. TS is nanoseconds since the
// tracer's epoch (its construction time); Dur is the event's duration
// in nanoseconds (0 for instant events). Name must be a static or
// shared string — events hold the header only, so recording one never
// copies or allocates.
type TraceEvent struct {
	TS   int64
	Dur  int64
	Kind EventKind
	Lane int32
	Name string
	Arg1 int64
	Arg2 int64
}

// traceLane is one ring buffer. Lane 0 is by convention the pipeline
// control lane (stages, batches, GC marks); lane w+1 carries
// worker w's events. A short mutex guards the cursor-and-write pair —
// writers touch a lane for tens of nanoseconds and a full ring simply
// overwrites its oldest slot, so recording never blocks on capacity.
type traceLane struct {
	mu  sync.Mutex
	seq uint64 // total events ever written to this lane
	buf []TraceEvent
}

// Tracer collects events into per-lane ring buffers. Construct with
// NewTracer, install with SetTracer, export with WriteChromeTrace /
// WriteJSONL (or WriteTraceFile). All methods are safe for concurrent
// use and safe on the nil Tracer.
type Tracer struct {
	epoch time.Time
	lanes []traceLane
	cap   int
}

// NewTracer creates a tracer with the given lane count and per-lane
// event capacity (both floored at 1). Memory cost is
// lanes × capacity × sizeof(TraceEvent) (~64 bytes/event), fixed at
// construction.
func NewTracer(lanes, capacity int) *Tracer {
	if lanes < 1 {
		lanes = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{epoch: time.Now(), lanes: make([]traceLane, lanes), cap: capacity}
	for i := range t.lanes {
		t.lanes[i].buf = make([]TraceEvent, capacity)
	}
	return t
}

// NewDefaultTracer sizes a tracer for this process: one control lane
// plus one lane per GOMAXPROCS worker, 16384 events each (roughly a
// few MB). A generation run records a handful of events per lane: one
// worker event per fan-out and, on lane 0, one event per stage. The
// calibration bisections sum their sweeps inline and record nothing,
// and the sampling blocks trace no event of their own. fpgen -n
// 1000000 -trace on 2 vCPUs recorded 88 events and dropped none; at
// GOMAXPROCS=16, 647. The ring drops the oldest events instead of
// growing, so the bound stays fixed.
func NewDefaultTracer() *Tracer {
	return NewTracer(runtime.GOMAXPROCS(0)+1, 1<<14)
}

// activeTracer holds the installed process-wide tracer; nil (the
// default) short-circuits all Emit* calls to a pointer load.
var activeTracer atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer (nil uninstalls).
// Install once at startup, before the traced run; installing mid-run
// only affects subsequently emitted events.
func SetTracer(t *Tracer) { activeTracer.Store(t) }

// record writes ev into the lane ring (lanes wrap modulo the lane
// count; negative lanes fold to 0). Zero allocations; never blocks on
// a full ring — the oldest event in the lane is overwritten instead.
func (t *Tracer) record(lane int, ev TraceEvent) {
	if t == nil {
		return
	}
	if lane < 0 {
		lane = 0
	}
	ln := &t.lanes[lane%len(t.lanes)]
	ln.mu.Lock()
	ln.buf[ln.seq%uint64(t.cap)] = ev
	ln.seq++
	ln.mu.Unlock()
}

// EmitSpan records a completed interval event on the process tracer:
// an interval that started at start and lasted dur. No-op (one atomic
// load) when no tracer is installed; zero allocations either way.
func EmitSpan(kind EventKind, lane int, name string, start time.Time, dur time.Duration, arg1, arg2 int64) {
	t := activeTracer.Load()
	if t == nil {
		return
	}
	ts := start.Sub(t.epoch)
	if ts < 0 {
		ts = 0
	}
	t.record(lane, TraceEvent{TS: int64(ts), Dur: int64(dur), Kind: kind,
		Lane: int32(lane), Name: name, Arg1: arg1, Arg2: arg2})
}

// EmitInstant records a point-in-time event stamped now on the process
// tracer. No-op when no tracer is installed; zero allocations.
func EmitInstant(kind EventKind, lane int, name string, arg1, arg2 int64) {
	t := activeTracer.Load()
	if t == nil {
		return
	}
	ts := time.Since(t.epoch)
	if ts < 0 {
		ts = 0
	}
	t.record(lane, TraceEvent{TS: int64(ts), Kind: kind,
		Lane: int32(lane), Name: name, Arg1: arg1, Arg2: arg2})
}

// Recorded returns the total number of events ever recorded, including
// those since overwritten (0 on nil).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	var total uint64
	for i := range t.lanes {
		ln := &t.lanes[i]
		ln.mu.Lock()
		total += ln.seq
		ln.mu.Unlock()
	}
	return int64(total)
}

// Dropped returns how many events were overwritten by ring overflow
// (0 on nil). A nonzero value means the trace is a suffix window of
// the run; size the tracer up with NewTracer for full coverage.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var dropped uint64
	for i := range t.lanes {
		ln := &t.lanes[i]
		ln.mu.Lock()
		if ln.seq > uint64(t.cap) {
			dropped += ln.seq - uint64(t.cap)
		}
		ln.mu.Unlock()
	}
	return int64(dropped)
}

// Events returns every retained event, merged across lanes in
// timestamp order. Intended for export after the traced run has
// quiesced; it is safe against concurrent Emit* but then reflects a
// per-lane snapshot moment.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	var out []TraceEvent
	for i := range t.lanes {
		ln := &t.lanes[i]
		ln.mu.Lock()
		if ln.seq <= uint64(t.cap) {
			out = append(out, ln.buf[:ln.seq]...)
		} else {
			p := ln.seq % uint64(t.cap)
			out = append(out, ln.buf[p:]...)
			out = append(out, ln.buf[:p]...)
		}
		ln.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// jsonlEvent is the JSONL wire form of one event.
type jsonlEvent struct {
	TSMicros  float64 `json:"ts_us"`
	DurMicros float64 `json:"dur_us,omitempty"`
	Kind      string  `json:"kind"`
	Lane      int32   `json:"lane"`
	Name      string  `json:"name"`
	Arg1      int64   `json:"arg1,omitempty"`
	Arg2      int64   `json:"arg2,omitempty"`
}

// WriteJSONL writes the retained events as JSON Lines: one event
// object per line, timestamps and durations in microseconds.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		je := jsonlEvent{
			TSMicros:  float64(ev.TS) / 1e3,
			DurMicros: float64(ev.Dur) / 1e3,
			Kind:      ev.Kind.String(),
			Lane:      ev.Lane,
			Name:      ev.Name,
			Arg1:      ev.Arg1,
			Arg2:      ev.Arg2,
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the JSON Perfetto and chrome://tracing load).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeArgs renders an event's kind-specific arguments.
func chromeArgs(ev TraceEvent) map[string]any {
	switch ev.Kind {
	case EvStage:
		if ev.Arg1 == 0 {
			return nil
		}
		return map[string]any{"items": ev.Arg1}
	case EvWorker:
		return map[string]any{"worker": ev.Arg1}
	case EvShard:
		return map[string]any{"shard": ev.Arg1, "items": ev.Arg2}
	case EvBatch:
		return map[string]any{"items": ev.Arg1}
	case EvGC:
		return map[string]any{"gc_count": ev.Arg1, "pause_total_ns": ev.Arg2}
	}
	return nil
}

// laneName is the display name of a lane's track: lane 0 is the
// pipeline control lane, lane w+1 is worker w.
func laneName(lane int32) string {
	if lane == 0 {
		return "pipeline"
	}
	return fmt.Sprintf("worker-%d", lane-1)
}

// WriteChromeTrace writes the retained events in the Chrome
// trace-event JSON format (the "JSON Array with metadata" flavor:
// an object with a traceEvents array), loadable in Perfetto
// (https://ui.perfetto.dev) and chrome://tracing. Interval events
// (stages, workers, shards, batches) become complete ("X") events on
// the lane's thread track; GC marks become instant ("i") events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"recorded_events": t.Recorded(),
			"dropped_events":  t.Dropped(),
		},
	}

	// One process, one named thread track per lane that carried events.
	lanesSeen := map[int32]bool{}
	for _, ev := range evs {
		lanesSeen[ev.Lane] = true
	}
	var laneIDs []int32
	for lane := range lanesSeen {
		laneIDs = append(laneIDs, lane)
	}
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "fpstudy"},
	})
	for _, lane := range laneIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: int(lane),
			Args: map[string]any{"name": laneName(lane)},
		})
	}

	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Kind.String(),
			Ph:   "X",
			TS:   float64(ev.TS) / 1e3,
			Dur:  float64(ev.Dur) / 1e3,
			PID:  1,
			TID:  int(ev.Lane),
			Args: chromeArgs(ev),
		}
		if ev.Dur == 0 && ev.Kind == EvGC {
			ce.Ph, ce.Dur, ce.S = "i", 0, "p" // process-scoped instant
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(&out); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTraceFile exports the tracer to path, choosing the format by
// extension: ".jsonl" writes JSON Lines, anything else the Chrome
// trace-event JSON.
func WriteTraceFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.EqualFold(filepath.Ext(path), ".jsonl") {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
