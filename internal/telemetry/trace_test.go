package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain uninstalls any tracer a test left behind.
func drainTracer(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { SetTracer(nil) })
}

func TestTracerRecordsAndOrders(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(4, 64)
	SetTracer(tr)

	base := time.Now()
	EmitSpan(EvStage, 0, "alpha", base, 5*time.Millisecond, 10, 0)
	EmitSpan(EvWorker, 2, "worker", base.Add(time.Millisecond), 2*time.Millisecond, 1, 0)
	EmitInstant(EvGC, 0, "gc", 3, 12345)

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("Events: got %d, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order at %d: %d < %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
	var haveStage, haveWorker, haveGC bool
	for _, ev := range evs {
		switch ev.Kind {
		case EvStage:
			haveStage = true
			if ev.Name != "alpha" || ev.Arg1 != 10 || ev.Dur != int64(5*time.Millisecond) {
				t.Fatalf("stage event mangled: %+v", ev)
			}
		case EvWorker:
			haveWorker = true
			if ev.Lane != 2 {
				t.Fatalf("worker event lane: got %d, want 2", ev.Lane)
			}
		case EvGC:
			haveGC = true
			if ev.Arg1 != 3 || ev.Arg2 != 12345 {
				t.Fatalf("gc event args mangled: %+v", ev)
			}
		}
	}
	if !haveStage || !haveWorker || !haveGC {
		t.Fatalf("missing kinds: stage=%v worker=%v gc=%v", haveStage, haveWorker, haveGC)
	}
	if got := tr.Recorded(); got != 3 {
		t.Fatalf("Recorded: got %d, want 3", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped: got %d, want 0", got)
	}
}

// TestTracerOverflowDropsOldest pins the ring-buffer overflow
// semantics: a full lane overwrites its oldest events (the retained
// window is the most recent capacity events) and recording never
// fails or blocks.
func TestTracerOverflowDropsOldest(t *testing.T) {
	drainTracer(t)
	const capacity = 8
	tr := NewTracer(1, capacity)
	SetTracer(tr)

	base := time.Now()
	const emitted = 20
	for i := 0; i < emitted; i++ {
		EmitSpan(EvStage, 0, "s", base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, int64(i), 0)
	}

	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d events, want %d", len(evs), capacity)
	}
	// Oldest dropped: the survivors are exactly the last `capacity`.
	for i, ev := range evs {
		want := int64(emitted - capacity + i)
		if ev.Arg1 != want {
			t.Fatalf("event %d: Arg1=%d, want %d (oldest should be dropped)", i, ev.Arg1, want)
		}
	}
	if got := tr.Recorded(); got != emitted {
		t.Fatalf("Recorded: got %d, want %d", got, emitted)
	}
	if got := tr.Dropped(); got != emitted-capacity {
		t.Fatalf("Dropped: got %d, want %d", got, emitted-capacity)
	}
}

// TestTracerOverflowNonBlocking floods a tiny tracer from many
// goroutines; every Emit must return (no blocking on a full ring) and
// the retained window must stay within capacity. Run under -race this
// also proves the lane locking is sound.
func TestTracerOverflowNonBlocking(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(2, 16)
	SetTracer(tr)

	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				EmitSpan(EvShard, g%3, "shard", time.Now(), time.Microsecond, int64(i), 0)
			}
		}(g)
	}
	wg.Wait()

	if got := tr.Recorded(); got != goroutines*perG {
		t.Fatalf("Recorded: got %d, want %d", got, goroutines*perG)
	}
	if got := len(tr.Events()); got > 2*16 {
		t.Fatalf("retained %d events, want <= %d", got, 2*16)
	}
	if tr.Dropped() != int64(goroutines*perG-len(tr.Events())) {
		t.Fatalf("Dropped=%d inconsistent with retained=%d", tr.Dropped(), len(tr.Events()))
	}
}

// TestEmitDisabledZeroAlloc pins the disabled-path cost: with no
// tracer installed, Emit* must not allocate (it is a pointer load and
// a branch).
func TestEmitDisabledZeroAlloc(t *testing.T) {
	SetTracer(nil)
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		EmitSpan(EvStage, 0, "s", start, time.Millisecond, 1, 2)
		EmitInstant(EvGC, 0, "gc", 1, 2)
	}); allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestEmitEnabledZeroAlloc pins the enabled record path: writing into
// the preallocated ring must not allocate either.
func TestEmitEnabledZeroAlloc(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(2, 1024)
	SetTracer(tr)
	start := time.Now()
	if allocs := testing.AllocsPerRun(100, func() {
		EmitSpan(EvShard, 1, "shard", start, time.Millisecond, 1, 2)
	}); allocs != 0 {
		t.Fatalf("enabled Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestPipelineStageEmitsStageEvent pins the one-name rule for a
// pipeline-level stage: with a probe and a tracer installed, one
// observation lands in the histogram latency.<name> and as an EvStage
// event named <name> on lane 0 carrying the item count.
func TestPipelineStageEmitsStageEvent(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(1, 64)
	SetTracer(tr)
	reg := NewRegistry()
	Install(reg)
	defer Install(nil)

	Done(StageGenerate, 0, Start(), 42, 0)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EvStage || ev.Name != "generate" || ev.Lane != 0 || ev.Arg1 != 42 {
		t.Fatalf("stage event mangled: %+v", ev)
	}
	if got := reg.Snapshot().Latencies["latency.generate"].Count; got != 1 {
		t.Errorf("latency.generate holds %d observations, want 1", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(3, 64)
	SetTracer(tr)
	base := time.Now()
	EmitSpan(EvStage, 0, "grade", base, 3*time.Millisecond, 100, 0)
	EmitSpan(EvWorker, 1, "worker", base, 2*time.Millisecond, 0, 0)
	EmitSpan(EvShard, 2, "shard", base, time.Millisecond, 5, 4096)
	EmitInstant(EvGC, 0, "gc", 1, 1000)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	threadNames := map[int]string{}
	var phases = map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Name == "thread_name" && ev.Ph == "M" {
			threadNames[ev.TID] = ev.Args["name"].(string)
		}
		if ev.PID != 1 {
			t.Fatalf("event pid=%d, want 1: %+v", ev.PID, ev)
		}
	}
	if phases["X"] != 3 {
		t.Fatalf("complete events: got %d, want 3", phases["X"])
	}
	if phases["i"] != 1 {
		t.Fatalf("instant events: got %d, want 1", phases["i"])
	}
	if threadNames[0] != "pipeline" || threadNames[1] != "worker-0" || threadNames[2] != "worker-1" {
		t.Fatalf("thread_name metadata wrong: %v", threadNames)
	}
	// Shard events carry their per-worker tid and shard args.
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "shard" {
			if ev.TID != 2 {
				t.Fatalf("shard event tid=%d, want 2", ev.TID)
			}
			if ev.Args["shard"].(float64) != 5 || ev.Args["items"].(float64) != 4096 {
				t.Fatalf("shard args mangled: %v", ev.Args)
			}
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(1, 16)
	SetTracer(tr)
	EmitInstant(EvGC, 0, "gc", 2, 99)
	EmitSpan(EvStage, 0, "grade", time.Now(), time.Millisecond, 199, 0)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if _, ok := obj["kind"]; !ok {
			t.Fatalf("line %d missing kind: %s", i, line)
		}
	}
}

func TestWriteTraceFileByExtension(t *testing.T) {
	drainTracer(t)
	tr := NewTracer(1, 16)
	SetTracer(tr)
	EmitInstant(EvGC, 0, "gc", 1, 1)

	dir := t.TempDir()
	chrome := filepath.Join(dir, "out.trace.json")
	jsonl := filepath.Join(dir, "out.trace.jsonl")
	if err := WriteTraceFile(chrome, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(jsonl, tr); err != nil {
		t.Fatal(err)
	}
	cdata, _ := os.ReadFile(chrome)
	var doc map[string]any
	if err := json.Unmarshal(cdata, &doc); err != nil {
		t.Fatalf(".json export not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal(".json export missing traceEvents")
	}
	jdata, _ := os.ReadFile(jsonl)
	line := strings.SplitN(strings.TrimSpace(string(jdata)), "\n", 2)[0]
	var obj map[string]any
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf(".jsonl export first line not valid JSON: %v", err)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Events() != nil || tr.Recorded() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accessors not inert")
	}
	tr.record(0, TraceEvent{})
}
