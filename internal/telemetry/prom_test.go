package telemetry

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// validateExposition is a minimal Prometheus text-format (0.0.4)
// checker: every non-comment line is `name{labels} value` with a legal
// metric name and a parseable value; histogram `le` buckets are
// cumulative (non-decreasing) and end in +Inf; every TYPE-declared
// histogram has _sum and _count. Returns the first problem found.
func validateExposition(text string) string {
	type histState struct {
		lastCum  int64
		sawInf   bool
		sawSum   bool
		sawCount bool
	}
	hists := map[string]*histState{}
	legalName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !ok {
				return false
			}
		}
		return true
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" && fields[3] == "histogram" {
				hists[fields[2]] = &histState{}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return "no value separator: " + line
		}
		name, val := line[:sp], line[sp+1:]
		labels := ""
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.HasSuffix(name, "}") {
				return "unterminated labels: " + line
			}
			labels = name[br+1 : len(name)-1]
			name = name[:br]
		}
		if !legalName(name) {
			return "illegal metric name: " + line
		}
		fv, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return "unparseable value: " + line
		}
		for base, h := range hists {
			switch name {
			case base + "_bucket":
				le := strings.TrimPrefix(labels, `le="`)
				le = strings.TrimSuffix(le, `"`)
				if le == "+Inf" {
					h.sawInf = true
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					return "unparseable le: " + line
				}
				if int64(fv) < h.lastCum {
					return "non-cumulative bucket: " + line
				}
				h.lastCum = int64(fv)
			case base + "_sum":
				h.sawSum = true
			case base + "_count":
				h.sawCount = true
			}
		}
	}
	for base, h := range hists {
		if !h.sawInf {
			return base + ": no +Inf bucket"
		}
		if !h.sawSum || !h.sawCount {
			return base + ": missing _sum/_count"
		}
	}
	return ""
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline.respondents").Add(199)
	reg.Gauge("mem.heap_alloc").Set(12345.5)
	lh := reg.Latency("latency.query-block")
	for i := 0; i < 100; i++ {
		lh.ObserveShard(0, time.Duration(i+1)*time.Millisecond)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, "fpstudy", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE fpstudy_pipeline_respondents counter",
		"fpstudy_pipeline_respondents 199",
		"# TYPE fpstudy_mem_heap_alloc gauge",
		"fpstudy_mem_heap_alloc 12345.5",
		"# TYPE fpstudy_latency_query_block_seconds histogram",
		`fpstudy_latency_query_block_seconds_bucket{le="+Inf"} 100`,
		"fpstudy_latency_query_block_seconds_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problem := validateExposition(out); problem != "" {
		t.Errorf("exposition invalid: %s\n%s", problem, out)
	}
	// Deterministic scrape-to-scrape output.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, "fpstudy", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition not deterministic across identical snapshots")
	}
}

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"io.bytes_read":       "io_bytes_read",
		"latency.fpds-encode": "latency_fpds_encode",
		"9lives":              "_9lives",
		"ok_name":             "ok_name",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromLatencySecondsConversion pins the ns→seconds conversion on
// the latency exposition: a 1ms observation must land in a bucket with
// le ≈ 0.001s, not 1e6.
func TestPromLatencySecondsConversion(t *testing.T) {
	reg := NewRegistry()
	reg.Latency("latency.x").ObserveShard(0, time.Millisecond)
	var b strings.Builder
	if err := WritePrometheus(&b, "p", reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "p_latency_x_seconds_sum 0.001") {
		t.Errorf("sum not in seconds:\n%s", out)
	}
	// The containing bucket's upper bound is within one sub-bucket
	// (3.1%) of 1ms.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "p_latency_x_seconds_bucket") && !strings.Contains(line, "+Inf") {
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q", le)
			}
			if v < 0.001 || v > 0.00104 {
				t.Errorf("bucket le = %g, want within (0.001, 0.00104)", v)
			}
			return
		}
	}
	t.Errorf("no finite bucket line found:\n%s", out)
}
