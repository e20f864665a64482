package main

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// spec is a BENCHMARK.json with two of the repository's end-to-end
// metrics.
const spec = `{"end_to_end": [
  {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
  {"name": "peak_heap_mb", "unit": "MB", "better": "lower", "bound": 0.15}
]}`

const info = `{"run":{"workload":"analyses","seed":1,"n":50000,"workers":2,"host":{"nproc":2,"gomaxprocs":2,"cpu_model":"Xeon","go_version":"go1.24.0"},"passes":5}}`

// diffFiles writes the spec and two perfbench outputs and diffs them.
func diffFiles(t *testing.T, old, cur string) (string, bool, error) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "old.out"), filepath.Join(dir, "new.out")}
	for i, content := range []string{spec, old, cur} {
		write(t, paths[i], content)
	}
	return diffReport(paths[0], paths[1], paths[2])
}

func result(correct string, failed int, wall string) string {
	return `{"correct":` + correct + `,"attempted":5,"failed":` + strconv.Itoa(failed) +
		`,"metrics":{"wall_s":{"value":` + wall + `,"unit":"s"},"peak_heap_mb":{"value":300,"unit":"MB"}}}`
}

// TestDiffGatesEndToEndBounds: identical outputs pass, a 30% wall_s
// rise fails naming wall_s, a 10% rise is inside the 25% bound, and a
// drop never fails.
func TestDiffGatesEndToEndBounds(t *testing.T) {
	base := info + "\n" + result("true", 0, "1.0") + "\n"
	for _, c := range []struct {
		wall  string
		worse bool
	}{{"1.0", false}, {"1.3", true}, {"1.1", false}, {"0.5", false}} {
		out, worse, err := diffFiles(t, base, info+"\n"+result("true", 0, c.wall)+"\n")
		if err != nil {
			t.Fatalf("wall %s: %v", c.wall, err)
		}
		if worse != c.worse {
			t.Errorf("wall 1.0 -> %s: worse = %v, want %v\n%s", c.wall, worse, c.worse, out)
		}
		if c.worse && !strings.Contains(out, "WORSE: wall_s") {
			t.Errorf("regression not named:\n%s", out)
		}
	}
}

// TestDiffCorrectAndFailedShare: a new run that fails a check is worse
// whatever its timings.
func TestDiffCorrectAndFailedShare(t *testing.T) {
	base := info + "\n" + result("true", 0, "1.0") + "\n"
	out, worse, err := diffFiles(t, base, info+"\n"+result("false", 1, "1.0")+"\n")
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out, "WORSE: correct, failed share") {
		t.Errorf("failed checks not judged worse:\n%s", out)
	}
}

// TestDiffRejectsIncomparable: a malformed line, a different workload
// and a missing metric are errors located at file:line.
func TestDiffRejectsIncomparable(t *testing.T) {
	good := info + "\n" + result("true", 0, "1.0") + "\n"
	for _, c := range []struct {
		name, cur, want string
	}{
		{"malformed", info + "\n{\"correct\":tru\n", "new.out:2: not a perfbench result line"},
		{"no result", info + "\n", "new.out:1: info line without a result line"},
		{"empty", "", "new.out: no perfbench output"},
		{"workload", strings.Replace(info, "analyses", "query", 1) + "\n" + result("true", 0, "1.0"), `new.out:1: workload "query", but`},
		{"missing metric", info + "\n" + `{"correct":true,"attempted":5,"failed":0,"metrics":{"wall_s":{"value":1,"unit":"s"}}}`,
			`new.out:2: no end-to-end metric "peak_heap_mb"`},
	} {
		_, _, err := diffFiles(t, good, c.cur)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestDiffReportNamesSlowedStage: when both outputs also carry a
// traced run's per-layer metrics, the layers rank by absolute change
// and the layer that lost the most time is named.
func TestDiffReportNamesSlowedStage(t *testing.T) {
	traced := func(grade string) string {
		return info + "\n" + `{"correct":true,"attempted":3,"failed":0,"metrics":{` +
			`"quiz.grade_s":{"value":` + grade + `,"unit":"s"},"core.items_s":{"value":0.20,"unit":"s"},` +
			`"core.items_alloc_mb":{"value":40,"unit":"MB"}}}` + "\n"
	}
	base := info + "\n" + result("true", 0, "1.0") + "\n"
	out, worse, err := diffFiles(t, base+traced("0.10"), base+traced("0.30"))
	if err != nil {
		t.Fatal(err)
	}
	if worse {
		t.Errorf("per-layer changes must not gate:\n%s", out)
	}
	if !strings.Contains(out, "top contributor: quiz.grade_s (+0.2 s)") {
		t.Errorf("diff did not name quiz.grade_s as top contributor:\n%s", out)
	}
	if strings.Index(out, "quiz.grade_s") > strings.Index(out, "core.items_s") {
		t.Errorf("layers not ranked by absolute change:\n%s", out)
	}
}

// TestDiffWarnsOnHostChange: outputs from different hosts compare, with
// a warning.
func TestDiffWarnsOnHostChange(t *testing.T) {
	base := info + "\n" + result("true", 0, "1.0") + "\n"
	other := strings.Replace(info, `"nproc":2`, `"nproc":8`, 1) + "\n" + result("true", 0, "1.0") + "\n"
	out, worse, err := diffFiles(t, base, other)
	if err != nil || worse {
		t.Fatalf("worse=%v err=%v", worse, err)
	}
	if !strings.Contains(out, "WARNING: the hosts differ") {
		t.Errorf("no host warning:\n%s", out)
	}
}
