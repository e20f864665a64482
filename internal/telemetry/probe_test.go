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
	Record(StageFPDSEncode, 0, start, 2*time.Millisecond, 0, 0)
	Done(StageSampleBlock, 0, Start(), 0, 4096)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricBusyNS:             500,
		MetricItems:              64,
		MetricQueryBlocksSkipped: 1,
		MetricQueryRowsScanned:   8192,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	for st, sumNS := range map[Stage]int64{
		StageParallelShard: int64(3 * time.Millisecond),
		StageParallelWait:  int64(time.Millisecond),
		StageQueryBlock:    int64(time.Millisecond),
		StageFPDSEncode:    int64(2 * time.Millisecond),
		StageSampleBlock:   -1, // timed by Start/Done: any sum
	} {
		ls := snap.Latencies[st.Metric()]
		if ls.Count != 1 || (sumNS >= 0 && ls.SumNS != sumNS) {
			t.Errorf("%s: %d observations summing to %dns, want 1 summing to %dns", st.Metric(), ls.Count, ls.SumNS, sumNS)
		}
	}
	if got := StageParallelShard.Metric(); got != "latency.parallel-shard" {
		t.Errorf("shard stage histogram = %q, want latency.parallel-shard", got)
	}

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("tracer holds %d events, want 1 (only the shard stage traces)", len(evs))
	}
	if ev := evs[0]; ev.Kind != EvShard || ev.Lane != 2 || ev.Name != "parallel-shard" ||
		ev.Arg1 != 7 || ev.Arg2 != 4096 || ev.Dur != int64(3*time.Millisecond) {
		t.Errorf("shard event = %+v", ev)
	}

	Install(nil)
	SetTracer(nil)
	if On() || !Start().IsZero() {
		t.Fatal("probe still on after uninstall")
	}
	Record(StageParallelShard, 2, start, time.Millisecond, 7, 4096)
	Record(StageQueryBlock, 1, start, time.Millisecond, 1, 8192)
	if got := reg.Latency(StageParallelShard.Metric()).Count(); got != 1 {
		t.Errorf("uninstalled probe still observing: %s count = %d", StageParallelShard.Metric(), got)
	}
	if got := reg.Counter(MetricQueryRowsScanned).Value(); got != 8192 {
		t.Errorf("uninstalled probe still counting: %s = %d", MetricQueryRowsScanned, got)
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
// the pointer, and none is torn — its histogram and its counters
// always advance together.
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
				Done(StageQueryBlock, g+1, Start(), 0, 1)
			}
		}(g)
	}
	wg.Wait()
	<-done
	rows := reg.Counter(MetricQueryRowsScanned).Value()
	if lat := reg.Latency(StageQueryBlock.Metric()).Count(); lat != rows || rows > writers*perG {
		t.Fatalf("latency count %d, %s %d: want equal and at most %d", lat, MetricQueryRowsScanned, rows, writers*perG)
	}
}

// TestInstallShardsByStageLevel pins the histogram fan-out Install
// gives each stage: one shard for a pipeline-level stage, which lane 0
// alone observes, and the default fan-out for a block-level stage,
// which every worker observes. A one-shard histogram still takes every
// lane's observations.
func TestInstallShardsByStageLevel(t *testing.T) {
	reg := NewRegistry()
	Install(reg)
	defer Install(nil)
	for st := Stage(0); st < numStages; st++ {
		want := latShards
		if st < StageSampleBlock {
			want = 1
		}
		if got := len(reg.Latency(st.Metric()).shards); got != want {
			t.Errorf("stage %s: %d histogram shards, want %d", st.Metric(), got, want)
		}
	}
	for lane := 0; lane < 3; lane++ {
		Record(StageCalibrate, lane, time.Now(), time.Millisecond, 0, 0)
	}
	if got := reg.Latency(StageCalibrate.Metric()).Count(); got != 3 {
		t.Fatalf("one-shard histogram counted %d of 3 observations", got)
	}
}
