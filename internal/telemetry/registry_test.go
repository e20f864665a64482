package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent is the race-detector contract of the registry:
// 8 writer goroutines hammer the same counter, gauge, and latency histogram
// (looked up by name per iteration, so map access races are exercised
// too) while a reader goroutine takes snapshots throughout. Run under
// `go test -race` (scripts/check.sh does).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot reader runs until the writers finish.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			if c, ok := s.Counters["c"]; ok && c < 0 {
				t.Error("counter went negative")
				return
			}
			if _, err := json.Marshal(s); err != nil {
				t.Errorf("snapshot not marshalable: %v", err)
				return
			}
		}
	}()

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("c").Inc()
				reg.Counter("c2").Add(2)
				reg.Gauge("g").Set(float64(g))
				reg.Latency("h").ObserveShard(g, time.Duration(i%200))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := reg.Counter("c").Value(); got != writers*perG {
		t.Errorf("counter c = %d, want %d", got, writers*perG)
	}
	if got := reg.Counter("c2").Value(); got != 2*writers*perG {
		t.Errorf("counter c2 = %d, want %d", got, 2*writers*perG)
	}
	if got := reg.Latency("h").Count(); got != writers*perG {
		t.Errorf("latency count = %d, want %d", got, writers*perG)
	}
}

// TestNilSafety pins the package's core ergonomic promise: every handle
// works (as a no-op) when nil, so instrumentation points never branch.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	var rec *Recorder
	var sp *Span
	var c *Counter
	var g *Gauge
	var h *LatencyHist

	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has nonzero value")
	}
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has nonzero value")
	}
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil latency histogram recorded something")
	}
	_ = h.Snapshot()

	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Latency("x") != nil {
		t.Error("nil registry returned non-nil metric")
	}
	_ = reg.Snapshot()
	reg.PublishExpvar("nil-reg")

	if rec.StartSpan("x") != nil {
		t.Error("nil recorder returned non-nil span")
	}
	if rec.Registry() != nil {
		t.Error("nil recorder returned non-nil registry")
	}
	if rec.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	rec.PublishExpvar("nil-rec")

	sp.AddItems(10)
	sp.End()
	if sp.StartChild("x") != nil {
		t.Error("nil span returned non-nil child")
	}
	if sp.Items() != 0 {
		t.Error("nil span has items")
	}
	_ = sp.Snapshot()

	var srv *Server
	if srv.Addr() != "" {
		t.Error("nil server has address")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("nil server close: %v", err)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("same counter name returned different counters")
	}
	if reg.Gauge("a") != reg.Gauge("a") {
		t.Error("same gauge name returned different gauges")
	}
	if reg.Latency("a") != reg.Latency("a") {
		t.Error("same latency name returned different histograms")
	}
}
