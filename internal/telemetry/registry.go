// Package telemetry is the zero-dependency observability layer of the
// study pipeline: an atomic metrics registry (counters, gauges,
// log-linear latency histograms), the stage probe the pipeline calls
// around every run phase and block (probe.go), a structured event
// tracer, and a Prometheus /metrics and pprof HTTP surface.
//
// # Determinism contract
//
// Telemetry observes the pipeline; it never participates in it. Nothing
// in this package draws randomness, alters shard boundaries, or feeds
// values back into the computation, so a run produces bit-identical
// output with telemetry on, off, or partially attached
// (internal/core.TestGoldenTelemetryInvariance pins this). Every handle
// is nil-safe: a nil *Registry, *Counter, *Gauge, or *LatencyHist
// accepts the full method set as a no-op, which is what lets
// instrumentation points stay unconditional in the hot paths without
// an "enabled" flag.
//
// # Metric naming
//
// Names are dot-separated, lower-case, subsystem-first, and each is
// defined once, as a Metric* constant or a Stage (probe.go):
//
//	pipeline.respondents     counter  generation progress (see Instrumentation)
//	pipeline.runs            counter  completed Study runs
//	parallel.items           counter  indices executed by ForEach
//	parallel.busy_ns         counter  summed worker busy time
//	query.rows_scanned       counter  rows the query engine's scan blocks examined
//	query.blocks_skipped     counter  aggregation passes elided on empty selections
//	io.bytes_written/read    counter  dataset bytes encoded / decoded
//	mem.heap_alloc, mem.gc_count, colstore.interned_strings   gauges
//	latency.<stage>          latency  per-observation durations (LatencyHist);
//	                                  its count and sum say how often a stage
//	                                  ran and for how long
//
// The stage table in probe.go is the one list of stage names: each
// stage's name keys its latency histogram, its trace event and its
// run-ledger row. Serve exposes the installed registry on /metrics in
// the Prometheus text format under the "fpstudy" prefix, with "." and
// "-" mapped to "_" (latency.sample-block becomes
// fpstudy_latency_sample_block_seconds).
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64 metric. The nil
// Counter accepts Add/Inc/Value as a no-op, so call sites never branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 metric holding a last-written value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of metrics. Metric constructors are
// idempotent (the same name returns the same metric), so any package
// can look up a shared counter by name without coordination. All
// methods are safe for concurrent use, and safe on the nil Registry
// (constructors return nil metrics, which are themselves no-ops).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	lats   map[string]*LatencyHist
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		lats:   map[string]*LatencyHist{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a no-op counter) on the nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use. Returns nil on the nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// latency returns the log-linear latency histogram with the given
// name, creating it on first use with the given shard count; a
// histogram that already exists keeps its own. Returns nil (a no-op
// histogram) on the nil Registry.
func (r *Registry) latency(name string, shards int) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lats[name]
	if !ok {
		l = newLatencyHist(shards)
		r.lats[name] = l
	}
	return l
}

// Snapshot is the JSON-marshalable state of a registry at one moment.
type Snapshot struct {
	Counters  map[string]int64           `json:"counters,omitempty"`
	Gauges    map[string]float64         `json:"gauges,omitempty"`
	Latencies map[string]LatencySnapshot `json:"latencies,omitempty"`
}

// Snapshot captures every metric's current value. The snapshot is
// internally consistent per metric (atomic reads); it does not freeze
// the registry as a whole, which monitoring does not need.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	lats := make(map[string]*LatencyHist, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(lats) > 0 {
		s.Latencies = make(map[string]LatencySnapshot, len(lats))
		for k, v := range lats {
			s.Latencies[k] = v.Snapshot()
		}
	}
	return s
}
