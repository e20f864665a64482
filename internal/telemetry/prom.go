package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Prometheus text exposition (format version 0.0.4) for every
// registry published with PublishExpvar. The expvar variable name
// doubles as the metric prefix, so the same single publication call a
// tool already makes lights up both /debug/vars (JSON) and /metrics
// (Prometheus): "pipeline.respondents" in registry "fpstudy" becomes
// "fpstudy_pipeline_respondents".
//
// Latency histograms render as native Prometheus histograms with
// cumulative `le` buckets plus `_count`/`_sum`, converted to seconds (the Prometheus base unit) and only non-empty
// buckets are emitted — the log-linear grid has ~1200 buckets, almost
// all zero; cumulative counts stay correct because empty buckets add
// nothing.

// promRegs is the process-wide publication list, mirroring the expvar
// publish-once pattern: the first registry to claim a prefix keeps it.
var (
	promMu   sync.Mutex
	promRegs = map[string]*Registry{}
)

// promPublish records reg under prefix for /metrics, once. A nil
// registry is not recorded (and does not claim the prefix).
func promPublish(prefix string, reg *Registry) {
	if reg == nil {
		return
	}
	promMu.Lock()
	defer promMu.Unlock()
	if _, ok := promRegs[prefix]; !ok {
		promRegs[prefix] = reg
	}
}

// promName sanitizes a dotted metric name into a legal Prometheus
// metric name component: [a-zA-Z0-9_] with everything else mapped to
// '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float in the exposition format (Go's shortest
// round-trip form is accepted by the text parser).
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedKeys returns the map's keys in lexical order so the exposition
// is deterministic scrape to scrape.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders one registry snapshot in the Prometheus text
// exposition format under the given metric prefix.
func WritePrometheus(w io.Writer, prefix string, snap Snapshot) error {
	p := promName(prefix)
	for _, name := range sortedKeys(snap.Counters) {
		n := p + "_" + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		n := p + "_" + promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Latencies) {
		l := snap.Latencies[name]
		n := p + "_" + promName(name) + "_seconds"
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum int64
		for _, b := range l.Buckets {
			cum += b.Count
			if b.Index == latBuckets-1 {
				continue // overflow bucket folds into +Inf below
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(float64(b.UpperNS)/1e9), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, l.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, promFloat(float64(l.SumNS)/1e9), n, l.Count); err != nil {
			return err
		}
	}
	return nil
}

// promHandler serves every published registry in the text exposition
// format.
func promHandler(w http.ResponseWriter, _ *http.Request) {
	promMu.Lock()
	prefixes := sortedKeys(promRegs)
	regs := make([]*Registry, len(prefixes))
	for i, p := range prefixes {
		regs[i] = promRegs[p]
	}
	promMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for i, p := range prefixes {
		if err := WritePrometheus(w, p, regs[i].Snapshot()); err != nil {
			return // client went away mid-scrape
		}
	}
}
