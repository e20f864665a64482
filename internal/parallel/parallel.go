// Package parallel is the deterministic sharded execution layer under
// the study pipeline. It provides ordered fan-out/fan-in helpers and
// the per-shard RNG seeding scheme that makes parallel population
// generation bit-identical to sequential generation.
//
// # Determinism contract
//
// Every helper in this package partitions its index space [0, n) into
// shards whose boundaries depend only on n (never on the worker count
// or on scheduling), and delivers results in index order. A caller that
//
//  1. writes only to index-addressed state (out[i] = fn(i)), and
//  2. derives any randomness from (seed, stream, index) via
//     At(StreamBase(seed, stream), index) rather than from a shared
//     stream,
//
// gets output that is byte-identical at any worker count, including
// workers == 1, and at any GOMAXPROCS. A floating point reduction stays
// deterministic when it sums MapShards' subtotals in shard order: the
// shard boundaries depend only on n.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpstudy/internal/telemetry"
)

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: the process's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Workers normalizes a requested worker count: values <= 0 become
// DefaultWorkers(), the count is capped at GOMAXPROCS (extra goroutines
// beyond the scheduler's P count only add handoff overhead — on a
// single-CPU host every "parallel" request degrades to serial, which is
// the honest execution), and the count is capped at n (no point
// spawning more workers than work items).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	} else if maxp := DefaultWorkers(); workers > maxp {
		workers = maxp
	}
	if n >= 0 && workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// grain caps the number of indices a worker claims per atomic fetch.
// Items range from one respondent (grading, an exp) to a whole
// 4096-respondent shard or 8192-row FPDS block, so the claim is sized
// to the loop (see claimSize): a long loop of cheap items claims grain
// at a time to amortize the atomic, and a short loop of expensive items
// claims one at a time so that every worker gets some.
const grain = 64

// claimSize is the number of indices one fetch claims in a loop of n
// items over workers goroutines: about a quarter of each worker's share,
// between 1 and grain. It changes only which worker runs an index,
// never what the index computes.
func claimSize(n, workers int) int {
	return min(max(n/(4*workers), 1), grain)
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines (workers <= 0 means DefaultWorkers). fn must confine its
// writes to index-addressed state; under that contract the result is
// independent of the worker count. ForEach returns when every call has
// completed.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWith(workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) { fn(i) })
}

// ForEachWith is ForEach with per-worker scratch state: each worker
// goroutine calls newC once and passes the result to every fn it runs.
// The index→worker assignment is dynamic (work stealing by claim), so
// the scratch value must never influence fn's output — it exists to
// hoist allocations out of the per-item path (a reusable RNG that is
// reseeded per index, a scratch buffer). Under that contract the result
// is independent of the worker count, exactly as for ForEach.
func ForEachWith[C any](workers, n int, newC func() C, fn func(c C, i int)) {
	forEachIndexed(workers, n, newC, func(c C, _, i int) { fn(c, i) })
}

// forEachIndexed is the work-stealing engine under ForEach/ForEachWith/
// MapShards: like ForEachWith, but fn additionally receives the index w
// of the worker goroutine executing it. The worker index exists only
// for observation (labeling trace lanes); by the work-stealing
// contract, fn's output must never depend on it.
func forEachIndexed[C any](workers, n int, newC func() C, fn func(c C, w, i int)) {
	workers = Workers(workers, n)
	if n <= 0 {
		return
	}
	if workers == 1 {
		t0 := telemetry.Start()
		c := newC()
		for i := 0; i < n; i++ {
			fn(c, 0, i)
		}
		serialDone(t0, n)
		return
	}
	// wall0 is zero when nothing observes, which keeps every clock read
	// below off the uninstrumented path.
	wall0 := telemetry.Start()
	claim := claimSize(n, workers)
	var next, busyNS atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if !wall0.IsZero() {
				t0 := time.Now()
				defer func() {
					busy := time.Since(t0)
					busyNS.Add(int64(busy))
					telemetry.Record(telemetry.StageParallelWorker, w+1, t0, busy, int64(w), 0)
				}()
			}
			c := newC()
			for {
				lo := int(next.Add(int64(claim))) - claim
				if lo >= n {
					return
				}
				hi := min(lo+claim, n)
				for i := lo; i < hi; i++ {
					fn(c, w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if !wall0.IsZero() {
		fanOutDone(wall0, n, workers, time.Since(wall0), time.Duration(busyNS.Load()))
	}
}

// serialDone observes a serial fan-out over n items that began at t0
// (zero when nothing observes): its one worker on trace lane 1 and the
// fan-out itself, whose wait is zero by construction.
func serialDone(t0 time.Time, n int) {
	if t0.IsZero() {
		return
	}
	busy := time.Since(t0)
	telemetry.Record(telemetry.StageParallelWorker, 1, t0, busy, 0, 0)
	fanOutDone(t0, n, 1, busy, busy)
}

// fanOutDone observes one completed fan-out of n items over workers
// goroutines: wall is its wall-clock time and busy the summed
// per-worker busy time, so workers*wall - busy is the aggregate wait
// (spawn, scheduling, imbalance at the tail) it incurred.
func fanOutDone(start time.Time, n, workers int, wall, busy time.Duration) {
	wait := time.Duration(workers)*wall - busy
	if wait < 0 {
		wait = 0 // clock skew between per-worker and wall reads
	}
	telemetry.Record(telemetry.StageParallelWait, 0, start, wait, int64(busy), int64(n))
}

// shardSize is the fixed shard width used by MapShards. It
// depends only on this constant — never on the worker count — which is
// what keeps ordered reductions deterministic.
const shardSize = 4096

// NumShards returns the number of fixed-width shards covering [0, n).
func NumShards(n int) int { return (n + shardSize - 1) / shardSize }

// ShardBounds returns the half-open index range of shard s.
func ShardBounds(s, n int) (lo, hi int) {
	lo = s * shardSize
	hi = lo + shardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MapShards splits [0, n) into fixed-width shards (boundaries
// independent of the worker count), applies fn to each shard in
// parallel, and returns the shard results in shard order.
func MapShards[T any](workers, n int, fn func(lo, hi int) T) []T {
	out := make([]T, NumShards(n))
	forEachIndexed(workers, NumShards(n),
		func() struct{} { return struct{}{} },
		func(_ struct{}, w, s int) {
			lo, hi := ShardBounds(s, n)
			t0 := telemetry.Start()
			out[s] = fn(lo, hi)
			telemetry.Done(telemetry.StageParallelShard, w+1, t0, int64(s), int64(hi-lo))
		})
	return out
}
