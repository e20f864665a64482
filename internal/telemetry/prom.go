package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the installed
// registry: "pipeline.respondents" becomes
// "fpstudy_pipeline_respondents".
//
// Latency histograms render as native Prometheus histograms with
// cumulative `le` buckets plus `_count`/`_sum`, converted to seconds
// (the Prometheus base unit), and only non-empty buckets are emitted —
// the log-linear grid has ~1200 buckets, almost all zero; cumulative
// counts stay correct because empty buckets add nothing.

// promPrefix is the metric-name prefix /metrics serves the installed
// registry under.
const promPrefix = "fpstudy"

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

// promHandler serves the installed registry in the text exposition
// format (an empty body while no probe is installed).
func promHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if reg := Installed(); reg != nil {
		WritePrometheus(w, promPrefix, reg.Snapshot()) //nolint:errcheck // client went away mid-scrape
	}
}
