package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestLatencyBucketGeometry pins the log-linear grid: exact 1 ns bins
// below 64 ns, then 32 linear sub-buckets per octave, with every value
// landing in a bucket whose bounds contain it.
func TestLatencyBucketGeometry(t *testing.T) {
	for _, ns := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000,
		4096, 1_000_000, 123_456_789, 5_000_000_000, int64(time.Hour)} {
		i := latBucketIndex(ns)
		lo, hi := latBucketLower(i), latBucketUpper(i)
		if ns < lo || ns >= hi {
			t.Errorf("ns=%d: bucket %d bounds [%d,%d) do not contain it", ns, i, lo, hi)
		}
		if ns < 64 && i != int(ns) {
			t.Errorf("ns=%d: want exact bin %d, got %d", ns, ns, i)
		}
		// Relative width bound: 1/32 above the exact range.
		if ns >= 64 && float64(hi-lo)/float64(lo) > 1.0/32+1e-12 {
			t.Errorf("ns=%d: bucket %d relative width %g > 1/32", ns, i, float64(hi-lo)/float64(lo))
		}
	}
	// Monotone: index never decreases with the value.
	prev := -1
	for ns := int64(0); ns < 100_000; ns += 7 {
		i := latBucketIndex(ns)
		if i < prev {
			t.Fatalf("ns=%d: index %d < previous %d", ns, i, prev)
		}
		prev = i
	}
	// Overflow clamps to the last bucket.
	if i := latBucketIndex(math.MaxInt64); i != latBuckets-1 {
		t.Errorf("MaxInt64 bucket = %d, want %d", i, latBuckets-1)
	}
}

// TestLatencyQuantiles checks the estimation error bound on a known
// distribution: quantiles of uniformly spread observations must land
// within one sub-bucket width (≈3.1%) of the true value.
func TestLatencyQuantiles(t *testing.T) {
	l := newLatencyHist(latShards)
	const n = 100_000
	for i := 1; i <= n; i++ {
		l.ObserveShard(i, time.Duration(i)*time.Microsecond)
	}
	snap := l.Snapshot()
	if snap.Count != n {
		t.Fatalf("count = %d, want %d", snap.Count, n)
	}
	for _, tc := range []struct {
		q    float64
		want float64 // ns
	}{
		{0.50, 50_000_000}, {0.90, 90_000_000}, {0.99, 99_000_000}, {0.999, 99_900_000},
	} {
		got := snap.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 1.0/32 {
			t.Errorf("q=%g: got %.0f ns, want %.0f ns (rel err %.3f > 1/32)", tc.q, got, tc.want, rel)
		}
	}
	if snap.P50NS != snap.Quantile(0.50) || snap.P99NS != snap.Quantile(0.99) {
		t.Errorf("precomputed quantiles disagree with Quantile()")
	}
	var sum int64
	for _, b := range snap.Buckets {
		sum += b.Count
	}
	if sum != snap.Count {
		t.Errorf("buckets sum to %d, count says %d", sum, snap.Count)
	}
}

// TestLatencyConcurrent hammers all shards from concurrent writers
// while snapshots run: every snapshot must be internally consistent
// (buckets sum to count), and the final count must be exact.
func TestLatencyConcurrent(t *testing.T) {
	l := newLatencyHist(latShards)
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := l.Snapshot()
			var sum int64
			for _, b := range s.Buckets {
				sum += b.Count
			}
			if sum != s.Count {
				t.Errorf("torn snapshot: buckets sum %d != count %d", sum, s.Count)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.ObserveShard(w, time.Duration(i)*time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := l.Count(); got != writers*perWriter {
		t.Errorf("final count = %d, want %d", got, writers*perWriter)
	}
}

// TestLatencyNilSafety: the nil histogram accepts the full method set.
func TestLatencyNilSafety(t *testing.T) {
	var l *LatencyHist
	l.ObserveShard(0, time.Second)
	l.ObserveShard(3, time.Second)
	if l.Count() != 0 {
		t.Error("nil Count != 0")
	}
	if s := l.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Errorf("nil Snapshot = %+v", s)
	}
	var r *Registry
	if r.Latency("x") != nil {
		t.Error("nil Registry.Latency != nil")
	}
	var snap *LatencySnapshot
	if snap.Quantile(0.5) != 0 {
		t.Error("nil snapshot Quantile != 0")
	}
}

// TestLatencyObserveZeroAlloc pins the hot path at 0 allocs for both
// the enabled and nil-disabled forms.
func TestLatencyObserveZeroAlloc(t *testing.T) {
	l := newLatencyHist(latShards)
	if n := testing.AllocsPerRun(1000, func() { l.ObserveShard(2, 123*time.Microsecond) }); n != 0 {
		t.Errorf("ObserveShard allocs = %g, want 0", n)
	}
	var nilHist *LatencyHist
	if n := testing.AllocsPerRun(1000, func() { nilHist.ObserveShard(0, time.Second) }); n != 0 {
		t.Errorf("nil ObserveShard allocs = %g, want 0", n)
	}
}

// TestRegistryLatencySnapshot: registry-created latency hists appear in
// the registry snapshot with quantiles filled.
func TestRegistryLatencySnapshot(t *testing.T) {
	reg := NewRegistry()
	lh := reg.Latency("latency.query-block")
	if reg.Latency("latency.query-block") != lh {
		t.Fatal("Latency not idempotent")
	}
	lh.ObserveShard(0, 2*time.Millisecond)
	lh.ObserveShard(0, 4*time.Millisecond)
	s := reg.Snapshot()
	ls, ok := s.Latencies["latency.query-block"]
	if !ok {
		t.Fatal("latency hist missing from snapshot")
	}
	if ls.Count != 2 || ls.P50NS <= 0 {
		t.Errorf("latency snapshot = %+v", ls)
	}
}

// TestLatencyQuantileEdgeCases pins the degenerate shapes the report
// and exposition layers must survive: an empty histogram (no
// observations) yields zero quantiles and no buckets, and a
// single-bucket histogram (every observation identical) yields
// quantiles inside that bucket for every q.
func TestLatencyQuantileEdgeCases(t *testing.T) {
	empty := newLatencyHist(latShards).Snapshot()
	if empty.Count != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("empty snapshot: count=%d buckets=%d", empty.Count, len(empty.Buckets))
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	if empty.P50NS != 0 || empty.P999NS != 0 {
		t.Errorf("empty precomputed quantiles nonzero: p50=%g p999=%g", empty.P50NS, empty.P999NS)
	}

	single := newLatencyHist(latShards)
	const d = 12345 * time.Microsecond
	for i := 0; i < 1000; i++ {
		single.ObserveShard(0, d)
	}
	s := single.Snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("identical observations spread over %d buckets, want 1", len(s.Buckets))
	}
	i := s.Buckets[0].Index
	lo, hi := latBucketLower(i), latBucketUpper(i)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got := s.Quantile(q)
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("single-bucket Quantile(%g) = %g outside bucket [%d, %d]", q, got, lo, hi)
		}
	}
	if s.P50NS > s.P90NS || s.P90NS > s.P99NS || s.P99NS > s.P999NS {
		t.Errorf("single-bucket quantiles out of order: %g %g %g %g",
			s.P50NS, s.P90NS, s.P99NS, s.P999NS)
	}
	if s.SumNS != int64(d)*1000 {
		t.Errorf("sum = %d, want %d", s.SumNS, int64(d)*1000)
	}
}
