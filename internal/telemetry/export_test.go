package telemetry

// The tests build and read histograms by name; the package itself
// creates its histograms in Install and reads them through Snapshot.

// Latency returns the log-linear latency histogram with the given
// name, creating it on first use with the default shard fan-out.
// Returns nil (a no-op histogram) on the nil Registry.
func (r *Registry) Latency(name string) *LatencyHist {
	return r.latency(name, latShards)
}

// Count returns the total number of observations across shards (0 on
// nil). Like Snapshot, it may trail concurrent writers.
func (l *LatencyHist) Count() int64 {
	if l == nil {
		return 0
	}
	var n int64
	for i := range l.shards {
		n += l.shards[i].count.Load()
	}
	return n
}
