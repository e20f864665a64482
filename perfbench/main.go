// Command perfbench is the repository's end-to-end benchmark: the user
// path fpgen → .fpds → fpreport, run in one process through the public
// functions of each module, with every pass checking its own output.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0
//
// run.py builds this package and runs it with the same flags. The last
// line of standard output is the result: correct, attempted, failed
// and the metrics, end-to-end with -trace 0 and per-layer with
// -trace 1. The line before it records the host and the inputs.
// README.md lists the workloads, the metrics and which layer should
// move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart anchors set-up time: from process start until the first
// pass is ready.
var processStart = time.Now()

// sizes are the cohort sizes and query count of each workload, and of
// the set-up cross-check.
type sizes struct {
	reproduceMain, reproduceStudents int
	analysesMain, analysesStudents   int
	queryMain, queries               int
	checkMain, checkStudents         int
}

var fullSizes = sizes{
	reproduceMain: 1_000_000, reproduceStudents: 250_000,
	analysesMain: 50_000, analysesStudents: 12_500,
	queryMain: 100_000, queries: 1000, // rounded down to 960, whole sets of query shapes
	checkMain: 2000, checkStudents: 500,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	// dir holds the fixtures (in a work directory removed at exit) and
	// the span dumps of traced runs.
	dir string
	// setupRuns is how many extra set-ups run, each in a fresh process,
	// to sample setup_s.
	setupRuns int
	start     time.Time
	sizes     sizes
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo records what the metrics do not: host, inputs, sample counts.
type runInfo struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	N             int       `json:"n"`
	Workers       int       `json:"workers"`
	Host          host      `json:"host"`
	Passes        int       `json:"passes"`
	PassWalls     []float64 `json:"pass_wall_s"` // untraced passes, in order
	TracedPasses  int       `json:"traced_passes,omitempty"`
	FailedFrac    float64   `json:"failed_frac"`
	Requests      int       `json:"requests"`      // distinct report requests per pass
	QuerySamples  int       `json:"query_samples"` // request latencies timed
	SetupSamples  []float64 `json:"setup_samples_s,omitempty"`
	TraceOverhead *float64  `json:"trace_overhead_s,omitempty"`
	FromSetup     []string  `json:"per_layer_from_setup,omitempty"`
	SpanFile      string    `json:"span_file,omitempty"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func main() {
	c := config{workers: runtime.NumCPU(), setupRuns: 2, start: processStart, sizes: fullSizes}
	flag.StringVar(&c.workload, "workload", "", "workload: reproduce, analyses or query")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "1 runs traced passes and reports the per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "build the fixtures, print the set-up time and exit")
	flag.StringVar(&c.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for fixtures and span dumps")
	flag.Parse()
	c.trace = *traceFlag == 1
	if _, err := newWorkload(c, ""); err != nil || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: give -workload reproduce, analyses or query")
		os.Exit(2)
	}

	if *setupOnly {
		secs, err := setupOnce(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("setup_s %v\n", secs)
		return
	}
	res, info, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(os.Stderr, res, info)
	infoLine, err := json.Marshal(map[string]runInfo{"run": info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", infoLine, resLine)
}

// setUp runs the cross-check and builds the workload's fixtures under
// a "setup" span.
func setUp(c config, tr *tracer, work string) (workload, int, error) {
	w, err := newWorkload(c, work)
	if err != nil {
		return nil, -1, err
	}
	root := tr.start("setup")
	err = crossCheck(tr, c, work)
	if err == nil {
		err = w.setup(tr)
	}
	tr.end(root)
	return w, root, err
}

// setupOnce is one set-up in this process, for -setup-only.
func setupOnce(c config) (float64, error) {
	work, err := workDir(c)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(work)
	if _, _, err := setUp(c, &tracer{}, work); err != nil {
		return 0, err
	}
	return time.Since(c.start).Seconds(), nil
}

// setupInChild samples setup_s in a fresh process of this binary, so
// every sample pays the process-wide one-time costs.
func setupInChild(c config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", c.workload,
		"-seed", strconv.FormatInt(c.seed, 10), "-dir", c.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	field, ok := strings.CutPrefix(strings.TrimSpace(string(out)), "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up in a child process printed %q", out)
	}
	return strconv.ParseFloat(field, 64)
}

// workDir makes this process's fixture directory under c.dir.
func workDir(c config) (string, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.dir, "work-")
}

// run sets up, then runs timed passes for c.seconds; the first pass
// fixes the reference digests the later ones must match. A traced run
// alternates untraced and traced passes, so the tracing overhead is
// their difference.
func run(c config) (result, runInfo, error) {
	info := runInfo{Workload: c.workload, Seed: c.seed, Workers: c.workers, Host: hostInfo()}
	work, err := workDir(c)
	if err != nil {
		return result{}, info, err
	}
	defer os.RemoveAll(work)

	off := &tracer{}
	tr := off
	if c.trace {
		tr = newTracer()
	}
	w, setupRoot, err := setUp(c, tr, work)
	if err != nil {
		return result{}, info, err
	}
	setupSamples := []float64{time.Since(c.start).Seconds()}
	info.N = w.size()
	if !c.trace {
		// The other samples come after this process's set-up, so that
		// they do not count towards it.
		for i := 0; i < c.setupRuns; i++ {
			s, err := setupInChild(c)
			if err != nil {
				return result{}, info, err
			}
			setupSamples = append(setupSamples, s)
		}
	}

	var res result
	var walls, peaks, tracedWalls, coverages []float64
	var lats [][]float64 // ms, by request, over the untraced passes
	var passRoots []int
	begin := time.Now()
	for i := 0; ; i++ {
		traced := c.trace && i%2 == 1
		ptr := off
		if traced {
			ptr = tr
		}
		// Each pass starts from a collected heap returned to the OS, as
		// a fresh fpreport process would.
		debug.FreeOSMemory()
		stopHeap := watchHeap()
		root := ptr.start("pass")
		t0 := time.Now()
		p := w.pass(ptr)
		wall := time.Since(t0).Seconds()
		ptr.end(root)
		peak := stopHeap()

		res.Attempted += p.ops
		res.Failed += p.failed
		if traced {
			tracedWalls = append(tracedWalls, wall)
			passRoots = append(passRoots, root)
			cov := tr.coverage(root)
			coverages = append(coverages, cov)
			if cov < 0.95 {
				fmt.Fprintf(os.Stderr, "perfbench: trace coverage %.3f < 0.95 of the pass wall time\n", cov)
				res.Failed++
			}
		} else {
			walls = append(walls, wall)
			peaks = append(peaks, peak)
			for j, d := range p.latencies {
				if j == len(lats) {
					lats = append(lats, nil)
				}
				lats[j] = append(lats[j], float64(d)/float64(time.Millisecond))
				info.QuerySamples++
			}
		}
		if time.Since(begin).Seconds() >= c.seconds && (!c.trace || len(tracedWalls) > 0) {
			break
		}
	}
	res.Correct = res.Failed == 0
	info.Passes = len(walls) + len(tracedWalls)
	info.TracedPasses = len(tracedWalls)
	info.PassWalls = walls
	info.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	info.Requests = len(lats)

	if !c.trace {
		// Every pass repeats the same requests, so a request's latency is
		// its median over the passes; a burst of interference from outside
		// the program then moves one sample, not the tail.
		typical := make([]float64, len(lats))
		for j := range lats {
			typical[j], _ = median(lats[j])
		}
		setup, _ := median(setupSamples)
		wall, _ := median(walls)
		peak, _ := median(peaks)
		// A "query" is one report request the user waits for: an ad-hoc
		// query (query), or the report from the FPDS file (reproduce:
		// the figures and claims; analyses: the five analyses), where
		// the one request per pass makes p50 and p99 the same.
		res.Metrics = map[string]metric{
			"setup_s":      {setup, "s"},
			"wall_s":       {wall, "s"},
			"peak_heap_mb": {peak, "MB"},
			"query_p50_ms": {percentile(typical, 50), "ms"},
			"query_p99_ms": {percentile(typical, 99), "ms"},
		}
		info.SetupSamples = setupSamples
		return res, info, nil
	}

	passes := make([]map[string]*layerTotal, len(passRoots))
	for i, r := range passRoots {
		passes[i] = tr.totals(r)
	}
	res.Metrics, info.FromSetup = perLayer(tr.totals(setupRoot), passes, coverages)
	tracedWall, _ := median(tracedWalls)
	untracedWall, _ := median(walls)
	overhead := tracedWall - untracedWall
	info.TraceOverhead = &overhead
	info.SpanFile = filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
	if err := tr.write(info.SpanFile); err != nil {
		return result{}, info, err
	}
	return res, info, nil
}

// watchHeap samples the heap in use (live and not yet swept objects)
// until the returned stop is called; stop returns the peak in MB.
func watchHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	peak := read()
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		return float64(max(peak, read())) / mb
	}
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// printMetrics prints the metrics by name with their units.
func printMetrics(f *os.File, res result, info runInfo) {
	fmt.Fprintf(f, "perfbench: %s seed=%d n=%d workers=%d passes=%d attempted=%d failed=%d failed_frac=%g\n",
		info.Workload, info.Seed, info.N, info.Workers, info.Passes, res.Attempted, res.Failed, info.FailedFrac)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(f, "  %-36s %14.6f %s\n", name, m.Value, m.Unit)
	}
	if info.TraceOverhead != nil {
		fmt.Fprintf(f, "  tracing overhead (traced - untraced wall_s): %+.4f s; spans in %s\n",
			*info.TraceOverhead, info.SpanFile)
	}
}
