package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

func diffMain(args []string) int {
	fs := flag.NewFlagSet("fpstat diff", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpstat diff old.out new.out  (perfbench outputs; reads ./BENCHMARK.json)")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	out, worse, err := diffReport("BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpstat diff:", err)
		return 2
	}
	fmt.Print(out)
	if worse {
		return 1
	}
	return 0
}

// bound is one end-to-end metric of BENCHMARK.json: which direction is
// better and by what relative change it may get worse.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, b := range spec.EndToEnd {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better is %q, want lower or higher", path, b.Name, b.Better)
		}
	}
	return spec.EndToEnd, nil
}

// perfHost is the host a perfbench run names on its info line.
type perfHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func (h perfHost) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s", h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion)
}

type perfMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perfOut is one perfbench output file: the standard output of one
// run — an info line {"run": …} then a result line — or of several
// runs of the same workload one after another (a --trace 0 run for the
// end-to-end metrics and a --trace 1 run for the per-layer ones).
type perfOut struct {
	path              string
	infoLine, resLine int // last of each, for located errors
	workload          string
	seed              int64
	n                 int
	host              perfHost
	correct           bool
	attempted, failed int
	metrics           map[string]perfMetric
}

func (p *perfOut) String() string {
	return fmt.Sprintf("%s (%s seed=%d n=%d; %s)", p.path, p.workload, p.seed, p.n, p.host)
}

func (p *perfOut) failedShare() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

// readPerfOut parses a perfbench output file strictly: every non-blank
// line must be the info or result line the order calls for, and every
// error names its file:line.
func readPerfOut(path string) (*perfOut, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := &perfOut{path: path, correct: true, metrics: map[string]perfMetric{}}
	wantInfo := true
	for i, line := range strings.Split(string(data), "\n") {
		at := fmt.Sprintf("%s:%d", path, i+1)
		if strings.TrimSpace(line) == "" {
			continue
		}
		if wantInfo {
			var info struct {
				Run *struct {
					Workload string   `json:"workload"`
					Seed     int64    `json:"seed"`
					N        int      `json:"n"`
					Host     perfHost `json:"host"`
				} `json:"run"`
			}
			if err := json.Unmarshal([]byte(line), &info); err != nil || info.Run == nil {
				return nil, fmt.Errorf("%s: not a perfbench info line {\"run\": …}", at)
			}
			if p.workload != "" && info.Run.Workload != p.workload {
				return nil, fmt.Errorf("%s: workload %q after %q in the same file", at, info.Run.Workload, p.workload)
			}
			p.infoLine, p.workload, p.seed, p.n, p.host = i+1, info.Run.Workload, info.Run.Seed, info.Run.N, info.Run.Host
		} else {
			var res struct {
				Correct   *bool                 `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]perfMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil || res.Correct == nil || res.Metrics == nil {
				return nil, fmt.Errorf("%s: not a perfbench result line {\"correct\": …, \"metrics\": …}", at)
			}
			p.resLine = i + 1
			p.correct = p.correct && *res.Correct
			p.attempted += res.Attempted
			p.failed += res.Failed
			for name, m := range res.Metrics {
				if _, dup := p.metrics[name]; dup {
					return nil, fmt.Errorf("%s: metric %q reported twice", at, name)
				}
				p.metrics[name] = m
			}
		}
		wantInfo = !wantInfo
	}
	switch {
	case p.infoLine == 0:
		return nil, fmt.Errorf("%s: no perfbench output", path)
	case !wantInfo:
		return nil, fmt.Errorf("%s:%d: info line without a result line", path, p.infoLine)
	}
	return p, nil
}

// relChange is (new-old)/|old|, with a change from zero counted as
// infinitely large.
func relChange(old, cur float64) float64 {
	switch {
	case old == cur:
		return 0
	case old == 0:
		return math.Inf(1) * math.Copysign(1, cur)
	}
	return (cur - old) / math.Abs(old)
}

// diffReport judges new against old: every end-to-end metric of the
// benchmark spec at specPath against its direction and bound, the
// correct flag and the failed share. worse reports whether any of them
// got worse; an error means the outputs cannot be compared.
func diffReport(specPath, oldPath, newPath string) (report string, worse bool, err error) {
	bounds, err := readBounds(specPath)
	if err != nil {
		return "", false, err
	}
	old, err := readPerfOut(oldPath)
	if err != nil {
		return "", false, err
	}
	cur, err := readPerfOut(newPath)
	if err != nil {
		return "", false, err
	}
	if old.workload != cur.workload {
		return "", false, fmt.Errorf("%s:%d: workload %q, but %s is %q",
			newPath, cur.infoLine, cur.workload, oldPath, old.workload)
	}
	for _, p := range []*perfOut{old, cur} {
		for _, b := range bounds {
			if _, ok := p.metrics[b.Name]; !ok {
				return "", false, fmt.Errorf("%s:%d: no end-to-end metric %q", p.path, p.resLine, b.Name)
			}
		}
	}

	var w strings.Builder
	fmt.Fprintf(&w, "old: %s\nnew: %s\n", old, cur)
	if old.host != cur.host {
		w.WriteString("WARNING: the hosts differ — deltas may be host variance, not code\n")
	}

	var bad []string
	fmt.Fprintf(&w, "\n%-14s %11s %2s %11s %2s %9s %7s  %s\n", "metric", "old", "", "new", "", "change", "bound", "verdict")
	for _, b := range bounds {
		o, n := old.metrics[b.Name], cur.metrics[b.Name]
		change := relChange(o.Value, n.Value)
		worsening := change
		if b.Better == "higher" {
			worsening = -change
		}
		verdict := "ok"
		if worsening > b.Bound {
			verdict = "WORSE"
			bad = append(bad, b.Name)
		}
		fmt.Fprintf(&w, "%-14s %11.4g %-2s %11.4g %-2s %+8.1f%% %6.0f%%  %s\n",
			b.Name, o.Value, o.Unit, n.Value, n.Unit, 100*change, 100*b.Bound, verdict)
	}
	fmt.Fprintf(&w, "correct: %v -> %v; failed: %d/%d -> %d/%d\n",
		old.correct, cur.correct, old.failed, old.attempted, cur.failed, cur.attempted)
	if !cur.correct {
		bad = append(bad, "correct")
	}
	if cur.failedShare() > old.failedShare() {
		bad = append(bad, "failed share")
	}

	writeLayers(&w, bounds, old, cur)

	if len(bad) > 0 {
		fmt.Fprintf(&w, "\nWORSE: %s\n", strings.Join(bad, ", "))
	} else {
		w.WriteString("\nno end-to-end metric worse beyond its bound\n")
	}
	return w.String(), len(bad) > 0, nil
}

// writeLayers ranks the per-layer metrics both outputs carry (those of
// a --trace 1 run) by absolute change within each unit, and names the
// layer that lost the most time.
func writeLayers(w *strings.Builder, bounds []bound, old, cur *perfOut) {
	endToEnd := map[string]bool{}
	for _, b := range bounds {
		endToEnd[b.Name] = true
	}
	type layer struct {
		name, unit string
		old, new   float64
	}
	var layers []layer
	for name, o := range old.metrics {
		if n, ok := cur.metrics[name]; ok && !endToEnd[name] {
			layers = append(layers, layer{name, o.Unit, o.Value, n.Value})
		}
	}
	if len(layers) == 0 {
		return
	}
	sort.Slice(layers, func(i, j int) bool {
		a, b := layers[i], layers[j]
		if a.unit != b.unit {
			return a.unit > b.unit // s first, then ratio, count, MB
		}
		if da, db := math.Abs(a.new-a.old), math.Abs(b.new-b.old); da != db {
			return da > db
		}
		return a.name < b.name
	})
	fmt.Fprintf(w, "\n## Per-layer metrics, by absolute change\n\n%4s %-36s %14s %14s %14s %s\n",
		"rank", "layer", "old", "new", "change", "unit")
	var top *layer
	rank := 0
	for i, l := range layers {
		if i == 0 || l.unit != layers[i-1].unit {
			rank = 0
		}
		rank++
		fmt.Fprintf(w, "%4d %-36s %14.6g %14.6g %+14.6g %s\n", rank, l.name, l.old, l.new, l.new-l.old, l.unit)
		if l.unit == "s" && l.new > l.old && (top == nil || l.new-l.old > top.new-top.old) {
			top = &layers[i]
		}
	}
	if top != nil {
		fmt.Fprintf(w, "\ntop contributor: %s (%+.6g s)\n", top.name, top.new-top.old)
	}
}
