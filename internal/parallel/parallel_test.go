package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpstudy/internal/telemetry"
)

// TestEveryHelperVisitsEachIndexOnce checks that ForEach, ForEachWith,
// Map and MapShards visit every index of [0, n) exactly once at every
// worker count from 1 to 8, with GOMAXPROCS raised so that Workers does
// not clamp the larger counts away, and that MapShards' subtotals,
// summed in shard order, stay bit-identical to the serial shard-order
// sum.
func TestEveryHelperVisitsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	// Terms of wildly varying magnitude, so that any other summation
	// order would change the rounded result.
	term := func(i int) float64 { return 1.0 / float64(i+1) / float64((i%977)+1) }
	for _, n := range []int{0, 1, 2, 7, 13, 63, 64, 65, 4097, 100000} {
		serial := 0.0
		for s := 0; s < NumShards(n); s++ {
			lo, hi := ShardBounds(s, n)
			sub := 0.0
			for i := lo; i < hi; i++ {
				sub += term(i)
			}
			serial += sub
		}
		for workers := 1; workers <= 8; workers++ {
			check := func(helper string, visit func(seen []int32)) {
				seen := make([]int32, n)
				visit(seen)
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("%s workers=%d n=%d: index %d visited %d times", helper, workers, n, i, c)
					}
				}
			}
			check("ForEach", func(seen []int32) {
				ForEach(workers, n, func(i int) { atomic.AddInt32(&seen[i], 1) })
			})
			check("ForEachWith", func(seen []int32) {
				var made atomic.Int32
				ForEachWith(workers, n, func() int { made.Add(1); return 0 },
					func(_ int, i int) { atomic.AddInt32(&seen[i], 1) })
				if n > 0 && int(made.Load()) > Workers(workers, n) {
					t.Fatalf("ForEachWith workers=%d n=%d: %d scratch values made", workers, n, made.Load())
				}
			})
			check("MapShards", func(seen []int32) {
				type shard struct {
					lo  int
					sub float64
				}
				got := 0.0
				for s, sh := range MapShards(workers, n, func(lo, hi int) shard {
					sub := 0.0
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
						sub += term(i)
					}
					return shard{lo, sub}
				}) {
					if want, _ := ShardBounds(s, n); sh.lo != want {
						t.Fatalf("MapShards workers=%d n=%d: shard %d starts at %d, want %d", workers, n, s, sh.lo, want)
					}
					got += sh.sub
				}
				if math.Float64bits(got) != math.Float64bits(serial) {
					t.Fatalf("MapShards workers=%d n=%d: shard-order sum %v, serial %v", workers, n, got, serial)
				}
			})
		}
	}
}

// TestShortLoopSpreadsAcrossWorkers checks that a loop of as few items
// as workers hands each worker an item: each of two calls waits until
// the other has started, which only two concurrent workers can
// satisfy. It runs the loop through ForEach (two indices) and through
// MapShards (two shards).
func TestShortLoopSpreadsAcrossWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	// meet returns a body for items 0 and 1 that marks its item started
	// and waits a few seconds at most for the other one.
	meet := func(helper string) func(i int) {
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		return func(i int) {
			close(started[i])
			select {
			case <-started[1-i]:
			case <-time.After(5 * time.Second):
				t.Errorf("%s: item %d ran while item %d waited unclaimed", helper, i, 1-i)
			}
		}
	}
	ForEach(2, 2, meet("ForEach"))
	body := meet("MapShards")
	MapShards(2, 2*shardSize, func(lo, _ int) struct{} {
		body(lo / shardSize)
		return struct{}{}
	})
}

func TestShardBounds(t *testing.T) {
	n := 3*shardSize + 17
	if NumShards(n) != 4 {
		t.Fatalf("NumShards(%d) = %d", n, NumShards(n))
	}
	covered := 0
	for s := 0; s < NumShards(n); s++ {
		lo, hi := ShardBounds(s, n)
		if lo != covered {
			t.Fatalf("shard %d starts at %d, want %d", s, lo, covered)
		}
		covered = hi
	}
	if covered != n {
		t.Fatalf("shards cover %d of %d", covered, n)
	}
}

func TestWorkersNormalization(t *testing.T) {
	// Raise GOMAXPROCS so the explicit-count assertions are not
	// short-circuited by the GOMAXPROCS clamp on a small host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	if Workers(0, 100) != DefaultWorkers() && DefaultWorkers() <= 100 {
		t.Fatal("workers<=0 should default to GOMAXPROCS")
	}
	if Workers(8, 3) != 3 {
		t.Fatal("workers should be capped at n")
	}
	if Workers(-1, 0) != 1 {
		t.Fatal("degenerate inputs should give 1 worker")
	}
}

// TestWorkersClampToGOMAXPROCS pins the bench-host honesty fix: asking
// for more workers than the scheduler has Ps must degrade to the P
// count, so a single-CPU host never reports fake "parallel" numbers.
func TestWorkersClampToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if got := Workers(16, 1000); got != 2 {
		t.Fatalf("Workers(16, 1000) at GOMAXPROCS=2 = %d, want 2", got)
	}
	if got := Workers(1, 1000); got != 1 {
		t.Fatalf("explicit workers=1 must stay serial, got %d", got)
	}
	runtime.GOMAXPROCS(1)
	if got := Workers(4, 1000); got != 1 {
		t.Fatalf("Workers(4, 1000) at GOMAXPROCS=1 = %d, want 1", got)
	}
}

// TestHookObservation checks that the installed telemetry probe sees
// fan-outs and shard dispatches through its counters and
// stage histograms — and that the results fn produces are identical
// with and without it.
func TestHookObservation(t *testing.T) {
	squares := func() []int {
		out := make([]int, 1000)
		ForEach(4, len(out), func(i int) { out[i] = i * i })
		return out
	}
	baseline := squares()

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	count := func(st telemetry.Stage) int64 { return reg.Snapshot().Latencies[st.Metric()].Count }
	items := reg.Counter(telemetry.MetricItems)
	busyNS := reg.Counter(telemetry.MetricBusyNS)

	got := squares()
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("probe changed results at %d: %d != %d", i, got[i], baseline[i])
		}
	}
	if calls := count(telemetry.StageParallelWait); calls == 0 || items.Value() != 1000 {
		t.Fatalf("probe saw calls=%d items=%d, want 1+ calls over 1000 items",
			calls, items.Value())
	}
	if busyNS.Value() <= 0 {
		t.Fatal("probe saw zero busy time")
	}

	// Sequential path reports too.
	ForEach(1, 64, func(i int) {})
	if items.Value() != 1064 {
		t.Fatalf("sequential ForEach reported %d items, want 64", items.Value()-1000)
	}

	// MapShards counts its shards on both the fan-out and the serial
	// path.
	for _, workers := range []int{4, 1} {
		before := count(telemetry.StageParallelShard)
		sum := 0
		for _, v := range MapShards(workers, 10000, func(lo, hi int) int { return hi - lo }) {
			sum += v
		}
		if sum != 10000 {
			t.Fatalf("workers=%d: MapShards under the probe covers %d items, want 10000", workers, sum)
		}
		if got, want := count(telemetry.StageParallelShard)-before, int64(NumShards(10000)); got != want {
			t.Fatalf("workers=%d: probe saw %d shards, want %d", workers, got, want)
		}
	}

}

// TestHookNilFastPath pins that uninstalling the probe restores the
// uninstrumented path (nothing is counted after Install(nil)).
func TestHookNilFastPath(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	ForEach(2, 10, func(i int) {})
	telemetry.Install(nil)
	calls := func() int64 { return reg.Snapshot().Latencies[telemetry.StageParallelWait.Metric()].Count }
	before := calls()
	ForEach(2, 10, func(i int) {})
	if calls() != before {
		t.Fatal("probe counted after Install(nil)")
	}
	if before == 0 {
		t.Fatal("probe never counted while installed")
	}
}

func TestForEachWithMatchesForEach(t *testing.T) {
	// ForEachWith with per-worker scratch must cover every index exactly
	// once and produce worker-count-independent results when fn confines
	// its writes to index i.
	const n = 10_000
	base := StreamBase(9, 4)
	want := make([]uint64, n)
	ForEach(1, n, func(i int) {
		want[i], _ = At(base, int64(i)).Next()
	})
	for _, workers := range []int{1, 2, 3, 8, 0} {
		got := make([]uint64, n)
		var scratchMade atomic.Int64
		ForEachWith(workers, n, func() *XRand {
			scratchMade.Add(1)
			return new(XRand)
		}, func(x *XRand, i int) {
			*x = At(base, int64(i))
			got[i], *x = x.Next()
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
		if w := Workers(workers, n); scratchMade.Load() > int64(w) {
			t.Fatalf("workers=%d: %d scratch values made, want <= %d", workers, scratchMade.Load(), w)
		}
	}
}

func TestForEachWithZeroItems(t *testing.T) {
	called := false
	ForEachWith(4, 0, func() int { called = true; return 0 }, func(int, int) { called = true })
	if called {
		t.Fatal("ForEachWith ran scratch or body for n=0")
	}
}

// TestWorkerShardSpanHooks pins the trace lanes the probe feeds:
// every fan-out records one worker event per worker goroutine (indices
// within [0, workers), on lane w+1), and MapShards records one shard
// event per shard whose item counts tile [0, n) — while results stay
// identical to the unobserved run.
func TestWorkerShardSpanHooks(t *testing.T) {
	const n = 10000
	baseline := MapShards(4, n, func(lo, hi int) int { return hi - lo })

	tracer := telemetry.NewTracer(runtime.GOMAXPROCS(0)+1, 1<<10)
	telemetry.SetTracer(tracer)
	defer telemetry.SetTracer(nil)

	got := MapShards(4, n, func(lo, hi int) int { return hi - lo })
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("tracing changed shard result %d: %d != %d", i, got[i], baseline[i])
		}
	}
	var workerSpans, shardSpans, shardItems int64
	for _, ev := range tracer.Events() {
		if ev.Dur < 0 || ev.Lane < 1 {
			t.Fatalf("event %+v: negative duration or not on a worker lane", ev)
		}
		switch ev.Kind {
		case telemetry.EvWorker:
			workerSpans++
			if ev.Arg1 < 0 || ev.Lane != int32(ev.Arg1)+1 {
				t.Fatalf("worker event %+v: index out of range or on the wrong lane", ev)
			}
		case telemetry.EvShard:
			shardSpans++
			shardItems += ev.Arg2
			if ev.Arg1 < 0 || ev.Arg1 >= int64(NumShards(n)) {
				t.Fatalf("shard event %+v: shard index out of range", ev)
			}
		}
	}
	if want := int64(NumShards(n)); shardSpans != want {
		t.Fatalf("%d shard events, want %d", shardSpans, want)
	}
	if shardItems != n {
		t.Fatalf("shard item counts sum to %d, want %d (shards must tile the index space)", shardItems, n)
	}
	if workerSpans == 0 {
		t.Fatal("no worker events")
	}

	// The single-worker inline path reports its one worker too.
	before := tracer.Recorded()
	ForEach(1, 64, func(i int) {})
	if got := tracer.Recorded() - before; got != 1 {
		t.Fatalf("sequential ForEach recorded %d events, want 1 worker event", got)
	}
}
