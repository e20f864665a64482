package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestProbeRecordFeedsStage pins the stage table: one observation feeds
// the stage's latency histogram, its counters, and its trace lane, and
// nothing is fed once the probe and tracer are removed.
func TestProbeRecordFeedsStage(t *testing.T) {
	drainTracer(t)
	reg := NewRegistry()
	Install(reg)
	defer Install(nil)
	tr := NewTracer(4, 64)
	SetTracer(tr)

	if Installed() != reg || !On() {
		t.Fatal("Install did not take")
	}
	start := time.Now()
	Record(StageParallelShard, 2, start, 3*time.Millisecond, 7, 4096)
	Record(StageParallelWait, 0, start, time.Millisecond, 500, 64)
	Record(StageQueryBlock, 1, start, time.Millisecond, 1, 8192)
	Record(StagePoolTask, 0, start, 2*time.Millisecond, 0, 0)
	Done(StageSampleBlock, 0, Start(), 0, 4096)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricShards:             1,
		MetricForEachCalls:       1,
		MetricBusyNS:             500,
		MetricItems:              64,
		MetricQueryBlocksSkipped: 1,
		MetricQueryRowsScanned:   8192,
		MetricPoolTasks:          1,
		MetricPoolBusyNS:         int64(2 * time.Millisecond),
		MetricFPOps:              0, // registered by Install, fed by the quiz oracles
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	for _, st := range []Stage{StageParallelShard, StageParallelWait, StageQueryBlock, StageSampleBlock} {
		if got := snap.Latencies[st.Name()].Count; got != 1 {
			t.Errorf("%s: %d observations, want 1", st.Name(), got)
		}
	}
	if got := StagePoolTask.Name(); got != MetricPoolTasks {
		t.Errorf("counter-only stage name = %q, want %q", got, MetricPoolTasks)
	}

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("tracer holds %d events, want 1 (only the shard stage traces)", len(evs))
	}
	if ev := evs[0]; ev.Kind != EvShard || ev.Lane != 2 || ev.Name != "shard" ||
		ev.Arg1 != 7 || ev.Arg2 != 4096 || ev.Dur != int64(3*time.Millisecond) {
		t.Errorf("shard event = %+v", ev)
	}

	Install(nil)
	SetTracer(nil)
	if On() || !Start().IsZero() {
		t.Fatal("probe still on after uninstall")
	}
	Record(StageParallelShard, 2, start, time.Millisecond, 7, 4096)
	if got := reg.Counter(MetricShards).Value(); got != 1 {
		t.Errorf("uninstalled probe still counting: %s = %d", MetricShards, got)
	}
}

// TestProbeZeroAlloc pins the probe's cost contract: with nothing
// installed, a Start/Done pair and a Record allocate nothing, and with
// a probe and tracer installed, an observation is atomic adds and a
// ring write — still nothing.
func TestProbeZeroAlloc(t *testing.T) {
	drainTracer(t)
	Install(nil)
	start := time.Now()
	observe := func() {
		Done(StageSampleBlock, 3, Start(), 3, 4096)
		Record(StageParallelShard, 1, start, time.Microsecond, 3, 4096)
	}
	if allocs := testing.AllocsPerRun(100, observe); allocs != 0 {
		t.Fatalf("uninstalled probe allocates %.1f/op, want 0", allocs)
	}
	Install(NewRegistry())
	defer Install(nil)
	SetTracer(NewTracer(2, 64))
	if allocs := testing.AllocsPerRun(100, observe); allocs != 0 {
		t.Fatalf("installed probe allocates %.1f/op, want 0", allocs)
	}
}

// TestProbeConcurrentInstall drives the probe from several goroutines
// while another installs and removes it, for the race detector: every
// observation lands in whichever probe was installed when it loaded
// the pointer, and none is torn.
func TestProbeConcurrentInstall(t *testing.T) {
	defer Install(nil)
	reg := NewRegistry()
	const writers, perG = 4, 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			Install(reg)
			Install(nil)
		}
		Install(reg)
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				Done(StageParallelShard, g+1, Start(), int64(i), 1)
			}
		}(g)
	}
	wg.Wait()
	<-done
	shards := reg.Counter(MetricShards).Value()
	if lat := reg.Latency(StageParallelShard.Name()).Count(); lat != shards || shards > writers*perG {
		t.Fatalf("latency count %d, %s %d: want equal and at most %d", lat, MetricShards, shards, writers*perG)
	}
}
