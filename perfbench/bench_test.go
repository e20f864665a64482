package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"
)

// tinySizes keep every workload to a second or two.
var tinySizes = sizes{
	reproduceMain: 20_000, reproduceStudents: 5000,
	analysesMain: 2000, analysesStudents: 500,
	queryMain: 5000, queries: 50,
	checkMain: 1000, checkStudents: 250,
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadTiny runs every workload of BENCHMARK.json once at
// tiny n, untraced and traced, and checks that the run reports exactly
// the declared metrics with their units and that no check failed.
func TestEveryWorkloadTiny(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: w.Name, seed: 3, trace: traced, workers: runtime.NumCPU(),
				dir: t.TempDir(), start: time.Now(), sizes: tinySizes}
			res, info, err := run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || info.FailedFrac != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced && res.Metrics[coverageMetric].Value < 0.95 {
				t.Errorf("%s: trace coverage %.3f < 0.95", w.Name, res.Metrics[coverageMetric].Value)
			}
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				t.Logf("%s traced=%v %-34s %12.6f %s", w.Name, traced, name, res.Metrics[name].Value, res.Metrics[name].Unit)
			}
		}
	}
}
