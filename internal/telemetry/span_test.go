package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	rec := NewRecorder(NewRegistry())
	root := rec.StartSpan("run")

	// Children opened concurrently, as the pipeline does.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild(fmt.Sprintf("stage-%d", i))
			c.AddItems(100)
			c.End()
		}(i)
	}
	wg.Wait()
	root.AddItems(400)
	root.End()

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "run" || s.Items != 400 {
		t.Errorf("root = %+v", s)
	}
	if s.Running {
		t.Error("ended root span still marked running")
	}
	if len(s.Children) != 4 {
		t.Fatalf("got %d children, want 4", len(s.Children))
	}
	for _, c := range s.Children {
		if c.Items != 100 {
			t.Errorf("child %s items = %d, want 100", c.Name, c.Items)
		}
		if c.Items > 0 && c.Seconds > 0 && c.ItemsPerSec <= 0 {
			t.Errorf("child %s has no items/sec", c.Name)
		}
	}
}

func TestSpanLiveSnapshot(t *testing.T) {
	rec := NewRecorder(nil)
	sp := rec.StartSpan("in-flight")
	sp.AddItems(7)
	time.Sleep(time.Millisecond)
	snap := sp.Snapshot() // not ended
	if !snap.Running {
		t.Error("open span not marked running")
	}
	if snap.Seconds <= 0 {
		t.Error("open span has zero duration")
	}
	sp.End()
	d1 := sp.Snapshot().Seconds
	time.Sleep(time.Millisecond)
	if d2 := sp.Snapshot().Seconds; d2 != d1 {
		t.Errorf("ended span duration moved: %g -> %g", d1, d2)
	}
	sp.End() // idempotent
}

// TestServeExpvar boots the introspection server on an ephemeral port
// and checks that /debug/vars serves a published registry and that the
// pprof index responds.
func TestServeExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline.respondents").Add(42)
	rec := NewRecorder(reg)
	sp := rec.StartSpan("run")
	sp.AddItems(42)
	sp.End()
	rec.PublishExpvar("fpstudy-test")

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	raw, ok := vars["fpstudy-test"]
	if !ok {
		t.Fatalf("fpstudy-test var missing from /debug/vars: %s", body)
	}
	var published struct {
		Metrics Snapshot       `json:"metrics"`
		Spans   []SpanSnapshot `json:"spans"`
	}
	if err := json.Unmarshal(raw, &published); err != nil {
		t.Fatal(err)
	}
	if published.Metrics.Counters["pipeline.respondents"] != 42 {
		t.Errorf("counter over expvar = %d, want 42", published.Metrics.Counters["pipeline.respondents"])
	}
	if len(published.Spans) != 1 || published.Spans[0].Name != "run" {
		t.Errorf("spans over expvar = %+v", published.Spans)
	}

	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	ppBody, _ := io.ReadAll(pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK || !strings.Contains(string(ppBody), "goroutine") {
		t.Errorf("pprof index bad: status %d", pp.StatusCode)
	}
}
