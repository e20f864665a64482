package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one call into a layer, timed by the benchmark around the
// call; the program under test carries no instrumentation of its own.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root ("setup" or "pass")
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
	// Alloc is the heap allocated during the span (all goroutines; the
	// benchmark makes one layer call at a time).
	Alloc uint64 `json:"alloc_bytes"`
	// IO, Scanned and Selected are the counts the call reported: bytes
	// encoded, decoded or streamed, and the rows a query scanned and
	// selected.
	IO       int64 `json:"io_bytes,omitempty"`
	Scanned  int64 `json:"rows_scanned,omitempty"`
	Selected int64 `json:"rows_selected,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// counts are the per-call counts attached to a span when it ends.
type counts struct {
	io, scanned, selected int64
}

// tracer keeps spans in memory until the benchmark ends. A disabled
// tracer (the zero value) records nothing, so untraced passes run the
// same code at the cost of a branch per call.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{on: true, epoch: time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// start opens a span as a child of the innermost open span and returns
// its id (-1 when tracing is off).
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: time.Since(t.epoch), Alloc: t.allocated()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) { t.endCounts(id, counts{}) }

// endCounts closes span id and records the call's counts on it.
func (t *tracer) endCounts(id int, c counts) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	s.Alloc = t.allocated() - s.Alloc
	s.IO, s.Scanned, s.Selected = c.io, c.scanned, c.selected
	t.open = t.open[:len(t.open)-1]
}

// layerTotal sums the spans that share a name.
type layerTotal struct {
	self                  time.Duration
	alloc                 uint64
	io, scanned, selected int64
}

// totals sums the descendants of root by span name, with self time
// (duration minus the children's). Spans of one root are contiguous,
// since roots are never nested.
func (t *tracer) totals(root int) map[string]*layerTotal {
	byName := map[string]*layerTotal{}
	end := root + 1
	for end < len(t.spans) && t.spans[end].Parent >= root {
		end++
	}
	children := make([]time.Duration, end-root)
	for i := root + 1; i < end; i++ {
		children[t.spans[i].Parent-root] += t.spans[i].dur()
	}
	for i := root + 1; i < end; i++ {
		s := &t.spans[i]
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			byName[s.Name] = lt
		}
		lt.self += s.dur() - children[i-root]
		lt.alloc += s.Alloc
		lt.io += s.IO
		lt.scanned += s.Scanned
		lt.selected += s.Selected
	}
	return byName
}

// coverage is the share of the root's wall time that the layer calls
// directly under it account for. The benchmark's own checks are left
// out of both sides, since no per-layer metric reports them.
func (t *tracer) coverage(root int) float64 {
	var covered, checks time.Duration
	for i := root + 1; i < len(t.spans) && t.spans[i].Parent >= root; i++ {
		switch s := &t.spans[i]; {
		case s.Parent != root:
		case s.Name == spCheck:
			checks += s.dur()
		default:
			covered += s.dur()
		}
	}
	return covered.Seconds() / (t.spans[root].dur() - checks).Seconds()
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
