package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is a log-linear (HDR-style) duration histogram built for
// hot paths: Observe is a single atomic add on a precomputed bucket
// index — no CAS loop, no locks, 0 allocs — into one of a fixed set of
// per-worker shards, so concurrent writers on different shards never
// touch the same cache lines. Shards are merged only at Snapshot time.
// A histogram that only one writer feeds needs one shard (see
// newLatencyHist); each shard costs about 10 KB.
//
// # Bucket geometry
//
// Durations are bucketed in nanoseconds on a log-linear grid: each
// power-of-two octave is split into 32 linear sub-buckets
// (latSubBuckets). For a duration v ns the bucket index is
//
//	k = max(0, bits.Len64(v) - 6)   // octave shift; v>>k ∈ [0, 64)
//	index = k*32 + v>>k
//
// so buckets 0..63 are exact 1 ns bins and every later bucket spans
// 2^k ns at a value of at least 32·2^k ns, bounding the relative
// quantile error at 1/32 ≈ 3.1%. The grid tops out at latMaxShift
// octaves (≈ 73 minutes); anything longer lands in the final overflow
// bucket.
//
// Like every other handle in this package, the nil *LatencyHist
// accepts the full method set as a no-op.
type LatencyHist struct {
	shards []latShard
	mask   int // len(shards) - 1
}

const (
	// latSubBucketBits fixes 2^5 = 32 linear sub-buckets per octave,
	// giving a ≤ 1/32 relative bucket width above 32 ns.
	latSubBucketBits = 5
	latSubBuckets    = 1 << latSubBucketBits

	// latMaxShift caps the octave shift: values at or above
	// 2^(latMaxShift+6) ns (≈ 73 min) clamp into the last bucket.
	latMaxShift = 36

	// latBuckets is the total bucket count: shifts 0..latMaxShift,
	// where shift k's top index is k*32 + 63.
	latBuckets = latMaxShift*latSubBuckets + 2*latSubBuckets

	// latShards is the default shard fan-out (a power of two). Worker
	// indices fold in with a mask, so any worker count is safe;
	// distinct workers ≤ latShards never share a shard.
	latShards = 16
)

// latShard is one writer lane. The trailing pad keeps the hot sum/count
// words of one shard off the first bucket cache line of the next.
type latShard struct {
	counts [latBuckets]atomic.Int64
	sumNS  atomic.Int64
	count  atomic.Int64
	_      [48]byte
}

// newLatencyHist builds an empty histogram of the given number of
// shards (a power of two) with all of them allocated, so Observe never
// allocates or branches on initialization state.
func newLatencyHist(shards int) *LatencyHist {
	return &LatencyHist{shards: make([]latShard, shards), mask: shards - 1}
}

// latBucketIndex maps a duration in nanoseconds to its bucket.
func latBucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	k := bits.Len64(uint64(ns)) - (latSubBucketBits + 1)
	if k <= 0 {
		return int(ns)
	}
	if k > latMaxShift {
		return latBuckets - 1
	}
	return k*latSubBuckets + int(ns>>uint(k))
}

// latBucketLower returns the inclusive lower bound (ns) of bucket i.
func latBucketLower(i int) int64 {
	if i < 2*latSubBuckets {
		return int64(i)
	}
	k := i/latSubBuckets - 1
	r := i - k*latSubBuckets
	return int64(r) << uint(k)
}

// latBucketUpper returns the exclusive upper bound (ns) of bucket i.
func latBucketUpper(i int) int64 {
	if i == latBuckets-1 {
		return math.MaxInt64
	}
	return latBucketLower(i + 1)
}

// ObserveShard records d into the shard for worker w (w may be any
// non-negative index; it folds in modulo the shard count). This is the
// hot-path form: one bucket-index computation and two atomic adds on a
// shard no other worker is writing. No-op on nil.
func (l *LatencyHist) ObserveShard(w int, d time.Duration) {
	if l == nil {
		return
	}
	s := &l.shards[w&l.mask]
	s.counts[latBucketIndex(int64(d))].Add(1)
	s.sumNS.Add(int64(d))
	s.count.Add(1)
}

// LatencyBucket is one non-empty bucket in a LatencySnapshot. Index is
// the log-linear grid position (see LatencyHist bucket geometry);
// UpperNS its exclusive upper bound in nanoseconds.
type LatencyBucket struct {
	Index   int   `json:"i"`
	UpperNS int64 `json:"le_ns"`
	Count   int64 `json:"count"`
}

// LatencySnapshot is the mergeable, JSON-ready view of a LatencyHist:
// sparse non-empty buckets plus precomputed quantiles. Count always
// equals the sum of the bucket counts (both derive from the same
// per-bucket reads); SumNS may trail concurrent writers slightly.
type LatencySnapshot struct {
	Count   int64           `json:"count"`
	SumNS   int64           `json:"sum_ns"`
	P50NS   float64         `json:"p50_ns"`
	P90NS   float64         `json:"p90_ns"`
	P99NS   float64         `json:"p99_ns"`
	P999NS  float64         `json:"p999_ns"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// Snapshot merges all shards into one consistent-enough view: each
// bucket is an atomic read; the total is the sum of those same reads,
// so the snapshot's buckets always sum to its count even under
// concurrent writers. Works on nil (empty snapshot).
func (l *LatencyHist) Snapshot() LatencySnapshot {
	if l == nil {
		return LatencySnapshot{}
	}
	var dense [latBuckets]int64
	var sum int64
	for s := range l.shards {
		sh := &l.shards[s]
		sum += sh.sumNS.Load()
		for i := range sh.counts {
			dense[i] += sh.counts[i].Load()
		}
	}
	snap := LatencySnapshot{SumNS: sum}
	for i, c := range dense {
		if c == 0 {
			continue
		}
		snap.Count += c
		snap.Buckets = append(snap.Buckets, LatencyBucket{Index: i, UpperNS: latBucketUpper(i), Count: c})
	}
	snap.fillQuantiles()
	return snap
}

// fillQuantiles recomputes the precomputed percentile fields from the
// sparse buckets.
func (s *LatencySnapshot) fillQuantiles() {
	s.P50NS = s.Quantile(0.50)
	s.P90NS = s.Quantile(0.90)
	s.P99NS = s.Quantile(0.99)
	s.P999NS = s.Quantile(0.999)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) in nanoseconds by
// walking the cumulative bucket counts and interpolating linearly
// inside the containing bucket. The estimate is exact below 64 ns and
// within ≈ 3.1% above (one sub-bucket width). Returns 0 for an empty
// snapshot.
func (s *LatencySnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= rank {
			lo, hi := float64(latBucketLower(b.Index)), float64(latBucketUpper(b.Index))
			if b.Index == latBuckets-1 {
				return lo // overflow bucket: report its lower bound
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - cum) / float64(b.Count)
			}
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	last := s.Buckets[len(s.Buckets)-1]
	return float64(latBucketUpper(last.Index))
}
