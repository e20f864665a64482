//go:build ignore

// SLO smoke test: builds fpgen, starts an n=1,000,000 generation to an
// .fpds file with -telemetry on an ephemeral port and -runlog, scrapes
// /metrics while it runs, and validates the whole latency observatory
// end to end:
//
//  1. the /metrics exposition parses as Prometheus text format 0.0.4
//     (legal metric names, parseable values, cumulative histogram
//     buckets ending in +Inf, _sum/_count present), and
//  2. it carries live latency histograms (a nonzero
//     fpstudy_latency_*_seconds_count), and
//  3. the run-ledger record fpgen appends carries per-stage latency
//     rows with ordered quantiles (p50 <= p90 <= p99 <= p999).
//
// Run via `make slo-smoke` (or `go run scripts/slo_smoke.go` from the
// repo root). Exits 0 and prints PASS on success.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "slo-smoke: FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// metricLine matches one exposition sample: name, optional labels,
// value. Timestamps are not emitted by the telemetry server.
var metricLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]Inf|[0-9eE.+-]+)$`)

// leLabel extracts the le bucket boundary from a label set.
var leLabel = regexp.MustCompile(`le="([^"]+)"`)

// validateExposition is a minimal Prometheus text-format 0.0.4 parser:
// every non-comment line must be a well-formed sample, and every
// histogram declared by a # TYPE line must have non-decreasing
// cumulative buckets ending in +Inf, with matching _sum and _count
// series. Returns a description of the first violation, or "".
func validateExposition(text string) string {
	types := map[string]string{}
	samples := map[string]float64{}
	buckets := map[string][]struct {
		le    float64
		count float64
	}{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Sprintf("malformed sample line %q", line)
		}
		name, labels := m[1], m[2]
		val, err := strconv.ParseFloat(strings.Replace(m[3], "Inf", "inf", 1), 64)
		if err != nil {
			return fmt.Sprintf("unparseable value in %q: %v", line, err)
		}
		samples[name] = val
		if strings.HasSuffix(name, "_bucket") {
			lm := leLabel.FindStringSubmatch(labels)
			if lm == nil {
				return fmt.Sprintf("bucket sample without le label: %q", line)
			}
			le, err := strconv.ParseFloat(strings.Replace(lm[1], "+Inf", "+inf", 1), 64)
			if err != nil {
				return fmt.Sprintf("unparseable le in %q: %v", line, err)
			}
			base := strings.TrimSuffix(name, "_bucket")
			buckets[base] = append(buckets[base], struct{ le, count float64 }{le, val})
		}
	}
	// # TYPE lines drive the histogram contract.
	for _, line := range strings.Split(text, "\n") {
		var name, kind string
		if n, _ := fmt.Sscanf(line, "# TYPE %s %s", &name, &kind); n != 2 || kind != "histogram" {
			continue
		}
		types[name] = kind
		bs := buckets[name]
		if len(bs) == 0 {
			return fmt.Sprintf("histogram %s has no buckets", name)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				return fmt.Sprintf("histogram %s buckets not in le order", name)
			}
			if bs[i].count < bs[i-1].count {
				return fmt.Sprintf("histogram %s cumulative counts decrease at le=%g", name, bs[i].le)
			}
		}
		last := bs[len(bs)-1]
		if !strings.Contains(fmt.Sprint(last.le), "Inf") && last.le < 1e308 {
			return fmt.Sprintf("histogram %s does not end in +Inf (ends %g)", name, last.le)
		}
		count, ok := samples[name+"_count"]
		if !ok {
			return fmt.Sprintf("histogram %s missing _count", name)
		}
		if _, ok := samples[name+"_sum"]; !ok {
			return fmt.Sprintf("histogram %s missing _sum", name)
		}
		if count != last.count {
			return fmt.Sprintf("histogram %s _count=%g != +Inf bucket %g", name, count, last.count)
		}
	}
	if len(types) == 0 {
		return "no histograms in exposition"
	}
	return ""
}

func main() {
	tmp, err := os.MkdirTemp("", "fpstudy-slo-smoke-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fpgen")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fpgen")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fail("building fpgen: %v", err)
	}

	// n=1,000,000 keeps the run alive long enough (about a second on
	// two cores) for several scrapes to land mid-generation.
	ledger := filepath.Join(tmp, "ledger.jsonl")
	gen := exec.Command(bin, "-n", "1000000", "-o", filepath.Join(tmp, "slo.fpds"),
		"-telemetry", "127.0.0.1:0", "-runlog", ledger)
	stderr, err := gen.StderrPipe()
	if err != nil {
		fail("%v", err)
	}
	if err := gen.Start(); err != nil {
		fail("starting fpgen: %v", err)
	}
	defer func() {
		gen.Process.Kill()
		gen.Wait()
	}()

	addrRE := regexp.MustCompile(`telemetry on http://([0-9.:]+)/debug/vars`)
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		fail("fpgen never announced a telemetry address")
	}
	drained := make(chan struct{})
	go func() { // keep draining so fpgen never blocks on stderr
		for sc.Scan() {
		}
		close(drained)
	}()

	// Scrape /metrics until it shows live latency observations, then
	// validate the whole exposition.
	url := "http://" + addr + "/metrics"
	countRE := regexp.MustCompile(`(?m)^fpstudy_latency_[a-z_]+_seconds_count ([1-9][0-9]*)$`)
	var exposition string
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fail("reading %s: %v", url, err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			fail("%s Content-Type = %q, want text/plain exposition", url, ct)
		}
		if countRE.Match(body) {
			exposition = string(body)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if exposition == "" {
		fail("%s never served a nonzero fpstudy_latency_*_seconds_count", url)
	}
	if msg := validateExposition(exposition); msg != "" {
		fail("exposition check: %s", msg)
	}
	liveStages := countRE.FindAllString(exposition, -1)

	// Let the run finish and check its ledger record's quantile rows.
	<-drained
	if err := gen.Wait(); err != nil {
		fail("fpgen exited: %v", err)
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		fail("fpgen appended no ledger record: %v", err)
	}
	var rec struct {
		Tool    string `json:"tool"`
		Latency []struct {
			Stage  string  `json:"stage"`
			Count  int64   `json:"count"`
			P50NS  float64 `json:"p50_ns"`
			P90NS  float64 `json:"p90_ns"`
			P99NS  float64 `json:"p99_ns"`
			P999NS float64 `json:"p999_ns"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		fail("parsing %s: %v", ledger, err)
	}
	if rec.Tool != "fpgen" || len(rec.Latency) == 0 {
		fail("ledger record carries no per-stage latency quantiles: %s", data)
	}
	var stages []string
	for _, s := range rec.Latency {
		if s.Count <= 0 {
			fail("stage %s: count = %d", s.Stage, s.Count)
		}
		if s.P50NS > s.P90NS || s.P90NS > s.P99NS || s.P99NS > s.P999NS {
			fail("stage %s: quantiles out of order: p50=%g p90=%g p99=%g p999=%g",
				s.Stage, s.P50NS, s.P90NS, s.P99NS, s.P999NS)
		}
		stages = append(stages, s.Stage)
	}
	sort.Strings(stages)
	fmt.Printf("slo-smoke: PASS: %s exposition valid (%d live latency series); "+
		"ledger record has quantile rows for [%s]\n",
		url, len(liveStages), strings.Join(stages, " "))
}
