package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span times one stage of a run. Spans form a tree (StartChild) and are
// safe for concurrent use: children may be opened from different
// goroutines, and items may be added while a snapshot reader walks the
// tree. The nil Span accepts every method as a no-op, so callers thread
// spans unconditionally.
type Span struct {
	name  string
	start time.Time
	items atomic.Int64

	mu       sync.Mutex
	end      time.Time
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild opens a child span under s. Nil-safe: on a nil receiver it
// returns nil, so an uninstrumented pipeline never allocates.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddItems adds n to the span's processed-item count (no-op on nil).
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.items.Add(n)
}

// Items returns the current item count (0 on nil).
func (s *Span) Items() int64 {
	if s == nil {
		return 0
	}
	return s.items.Load()
}

// End closes the span. Idempotent; no-op on nil. A span left open still
// snapshots (with the duration measured up to the snapshot moment), so
// live introspection of an in-flight run works.
//
// The first End also emits an EvStage trace event on the pipeline
// control lane, so the stage tree shows up in exported traces without
// any per-package threading: whoever times a stage with a Span gets
// trace coverage for free.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := s.end.IsZero()
	if first {
		s.end = time.Now()
	}
	end := s.end
	s.mu.Unlock()
	if first {
		EmitSpan(EvStage, 0, s.name, s.start, end.Sub(s.start), s.items.Load(), 0)
	}
}

// SpanSnapshot is the JSON-ready view of one span subtree.
type SpanSnapshot struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Running marks a span that had not ended when the snapshot was
	// taken; Seconds then measures up to the snapshot moment.
	Running     bool           `json:"running,omitempty"`
	Items       int64          `json:"items,omitempty"`
	ItemsPerSec float64        `json:"items_per_sec,omitempty"`
	Children    []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot captures the span subtree. Safe to call concurrently with
// StartChild/AddItems/End; empty on nil.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	end := s.end
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()

	snap := SpanSnapshot{Name: s.name, Items: s.Items()}
	if end.IsZero() {
		snap.Running = true
		end = time.Now()
	}
	snap.Seconds = end.Sub(s.start).Seconds()
	if snap.Items > 0 && snap.Seconds > 0 {
		snap.ItemsPerSec = float64(snap.Items) / snap.Seconds
	}
	for _, c := range kids {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// Recorder ties a metrics registry to a forest of root spans: one
// Recorder observes one logical run (or one process). The nil Recorder
// is a fully functional no-op.
type Recorder struct {
	reg *Registry

	mu    sync.Mutex
	roots []*Span
}

// NewRecorder creates a recorder backed by reg (which may be nil when
// only span timing is wanted).
func NewRecorder(reg *Registry) *Recorder {
	return &Recorder{reg: reg}
}

// Registry returns the backing registry (nil on the nil Recorder, which
// in turn yields nil — no-op — metrics).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// StartSpan opens a new root span (nil on the nil Recorder).
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := newSpan(name)
	r.mu.Lock()
	r.roots = append(r.roots, s)
	r.mu.Unlock()
	return s
}

// Spans snapshots every root span tree in start order.
func (r *Recorder) Spans() []SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	roots := make([]*Span, len(r.roots))
	copy(roots, r.roots)
	r.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(roots))
	for _, s := range roots {
		out = append(out, s.Snapshot())
	}
	return out
}

// PublishExpvar exposes the recorder (metrics + span forest) as one
// expvar variable; /debug/vars then serves the live combined view, and
// /metrics serves the recorder's registry in Prometheus text format
// with the name as metric prefix. No-op on the nil Recorder.
func (r *Recorder) PublishExpvar(name string) {
	if r == nil {
		return
	}
	publish(name, func() any {
		return struct {
			Metrics Snapshot       `json:"metrics"`
			Spans   []SpanSnapshot `json:"spans,omitempty"`
		}{r.reg.Snapshot(), r.Spans()}
	})
	promPublish(name, r.reg)
}
