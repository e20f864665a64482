package telemetry

import (
	"sync/atomic"
	"time"
)

// This file is the stage probe: the one instrumentation path of the
// pipeline. The CLIs and core call Start/Done around each phase of a
// run, and the packages that do block-level work (parallel,
// respondent, colstore, query, quiz) call Start/Done or Record at each
// block boundary; Install(reg) turns those calls on for the whole
// process. One call feeds, under its stage, the stage's latency
// histogram, its counters, and — when a tracer is set — its trace
// lane. With nothing installed and no tracer set, Start is two atomic
// loads returning the zero time and Done is one branch: zero
// allocations (TestProbeZeroAlloc).
//
// The probe observes only: it reads clocks and adds to atomics, and
// nothing it records feeds back into sharding, RNG streams, or produced
// data, so instrumented runs are byte-identical to uninstrumented ones
// (internal/core.TestGoldenTelemetryInvariance).

// Metric names of the pipeline (see the package doc for the scheme).
// Each name is defined here once; the stage table below, the CLIs and
// the tests all refer to these constants.
const (
	// MetricRespondents counts generation progress: one increment per
	// respondent generated (n per cohort).
	MetricRespondents = "pipeline.respondents"
	// MetricRuns counts completed Study.Run executions.
	MetricRuns = "pipeline.runs"

	// MetricItems and MetricBusyNS count the indices and the summed
	// worker busy time of every fan-out (one parallel-wait
	// observation each).
	MetricItems  = "parallel.items"
	MetricBusyNS = "parallel.busy_ns"

	// MetricQueryRowsScanned counts respondent rows the query engine's
	// scan blocks examined; MetricQueryBlocksSkipped counts aggregation
	// passes elided because a block's selection came up empty. Their
	// ratio is the engine's filter-pruning win on a given workload.
	MetricQueryRowsScanned   = "query.rows_scanned"
	MetricQueryBlocksSkipped = "query.blocks_skipped"

	// MetricIOBytesWritten and MetricIOBytesRead count dataset bytes
	// moved by the serialization layer (colstore.IOOptions counters):
	// encode output and decode/load input respectively, either format.
	MetricIOBytesWritten = "io.bytes_written"
	MetricIOBytesRead    = "io.bytes_read"

	// MetricHeapAlloc and MetricGCCount are gauges fed by
	// StartMemSampler (live heap bytes; cumulative GC cycles), so a
	// long -n 1000000 run surfaces its memory behaviour on /metrics
	// while executing.
	MetricHeapAlloc = "mem.heap_alloc"
	MetricGCCount   = "mem.gc_count"
	// MetricInternedStrings gauges the size of the columnar string
	// arena after generation (zero for generated cohorts — every answer
	// is a code; nonzero only when converted row data carried free
	// text).
	MetricInternedStrings = "colstore.interned_strings"
)

// Stage identifies one instrumented operation. The stage table below
// is the one list of stage names: a stage's name is its latency
// histogram ("latency.<name>"), its trace event and its run-ledger
// row.
type Stage uint8

// The pipeline-level stages each time one phase of a run, once per
// run; they trace as EvStage events on lane 0 with the phase's item
// count as arg1.
const (
	StageGenerate         Stage = iota // fpgen's cohort, or both cohorts of a Study.Run
	StageGenerateMain                  // the main cohort of a Study.Run
	StageGenerateStudents              // the student cohort of a Study.Run or ResultsFromColumns
	StageDrawProfiles                  // the calibration prefix's abilities
	StageCalibrate                     // fitting every question model
	StageSampleResponses               // sampling a cohort's answers into columns
	StageGrade                         // grading the main cohort for the analyses
	StageWrite                         // fpgen's dataset encode and write
	StageLoadData                      // fpreport's -data load
	StageLoadStudentData               // fpreport's -studentdata load
	StageReport                        // fpreport's figures, claims, analyses or query output

	// The block-level stages each time one unit of work inside a
	// phase, many times per run.
	StageSampleBlock       // one 4096-respondent response-sampling block
	StageCalibrateQuestion // one question-model bisection
	StageFPDSEncode        // one FPDS column block encode
	StageFPDSDecode        // one FPDS column block decode
	StageQueryBlock        // one query-engine scan block (load+filter+key+aggregate)
	StageParallelShard     // one MapShards shard
	StageParallelWorker    // one worker's busy time in a fan-out
	StageParallelWait      // one fan-out's aggregate wait (workers*wall-busy)
	numStages
)

// stageDef says what one observation of a stage feeds besides its
// latency histogram, whose count and sum already say how often the
// stage ran and for how long. Every other field is optional; "" and 0
// mean "not fed".
type stageDef struct {
	name string
	arg1 string // counter advanced by the observation's arg1
	arg2 string // counter advanced by the observation's arg2
	// kind is the trace event, named after the stage, recorded on the
	// observation's lane while a tracer is set, with arg1/arg2 as its
	// arguments.
	kind EventKind
}

var stageDefs = [numStages]stageDef{
	StageGenerate:         {name: "generate", kind: EvStage},
	StageGenerateMain:     {name: "generate-main", kind: EvStage},
	StageGenerateStudents: {name: "generate-students", kind: EvStage},
	StageDrawProfiles:     {name: "draw-profiles", kind: EvStage},
	StageCalibrate:        {name: "calibrate", kind: EvStage},
	StageSampleResponses:  {name: "sample-responses", kind: EvStage},
	StageGrade:            {name: "grade", kind: EvStage},
	StageWrite:            {name: "write", kind: EvStage},
	StageLoadData:         {name: "load-data", kind: EvStage},
	StageLoadStudentData:  {name: "load-studentdata", kind: EvStage},
	StageReport:           {name: "report", kind: EvStage},

	StageSampleBlock:       {name: "sample-block"},
	StageCalibrateQuestion: {name: "calibrate-question"},
	StageFPDSEncode:        {name: "fpds-encode-block"},
	StageFPDSDecode:        {name: "fpds-decode-block"},
	StageQueryBlock: {name: "query-block",
		arg1: MetricQueryBlocksSkipped, arg2: MetricQueryRowsScanned},
	StageParallelShard:  {name: "parallel-shard", kind: EvShard},
	StageParallelWorker: {name: "parallel-worker-busy", kind: EvWorker},
	StageParallelWait:   {name: "parallel-wait", arg1: MetricBusyNS, arg2: MetricItems},
}

// Metric returns the name of the stage's latency histogram,
// "latency.<name>".
func (st Stage) Metric() string { return LatencyPrefix + stageDefs[st].name }

// latencyShards is the shard count of the stage's latency histogram:
// one for a pipeline-level stage, which lane 0 alone observes once per
// phase, and the default fan-out for a block-level stage, which every
// worker observes.
func (st Stage) latencyShards() int {
	if st < StageSampleBlock {
		return 1
	}
	return latShards
}

// LatencyPrefix starts the name of every stage's latency histogram.
const LatencyPrefix = "latency."

// stageSink holds one stage's resolved registry handles; nil handles
// are no-ops.
type stageSink struct {
	lat        *LatencyHist
	arg1, arg2 *Counter
}

type probe struct {
	reg    *Registry
	stages [numStages]stageSink
}

// installed is the process-wide probe; nil (the default) turns every
// observation into a pointer load and a branch.
var installed atomic.Pointer[probe]

// Install makes reg the process-wide sink of every stage observation
// (nil uninstalls). It registers every stage metric up front, so a
// snapshot names them all from the start. The probe is global because
// the pipeline has one worker-pool layer: install once at startup;
// installing mid-run affects only later observations.
func Install(reg *Registry) {
	if reg == nil {
		installed.Store(nil)
		return
	}
	p := &probe{reg: reg}
	counter := func(name string) *Counter {
		if name == "" {
			return nil
		}
		return reg.Counter(name)
	}
	for st, d := range stageDefs {
		s := &p.stages[st]
		s.lat = reg.latency(Stage(st).Metric(), Stage(st).latencyShards())
		s.arg1, s.arg2 = counter(d.arg1), counter(d.arg2)
	}
	installed.Store(p)
}

// Installed returns the registry the probe feeds, or nil when no probe
// is installed.
func Installed() *Registry {
	if p := installed.Load(); p != nil {
		return p.reg
	}
	return nil
}

// On reports whether observations are being taken: a probe is
// installed or a tracer is set.
func On() bool { return installed.Load() != nil || activeTracer.Load() != nil }

// Start opens an observation: it returns the current time when On, and
// the zero time otherwise, which makes the matching Done a no-op and
// keeps the clock read off the uninstrumented path.
func Start() time.Time {
	if !On() {
		return time.Time{}
	}
	return time.Now()
}

// Done closes an observation opened by Start: it records one operation
// of stage st that began at start and ends now (see Record). No-op for
// the zero start.
func Done(st Stage, lane int, start time.Time, arg1, arg2 int64) {
	if start.IsZero() {
		return
	}
	Record(st, lane, start, time.Since(start), arg1, arg2)
}

// Record feeds one completed operation of stage st, which began at
// start and took d, to the probe and the tracer:
//
//   - the stage's latency histogram observes d on histogram shard lane
//     (lanes pick shards only to keep concurrent writers apart);
//   - its counters advance by arg1 and arg2, as the stage defines;
//   - while a tracer is set, a stage with a trace kind records an
//     interval event on lane with arg1/arg2 as its arguments (lane 0 is
//     the pipeline control lane, lane w+1 worker w).
//
// Record is a no-op for whatever is not installed.
func Record(st Stage, lane int, start time.Time, d time.Duration, arg1, arg2 int64) {
	if p := installed.Load(); p != nil {
		s := &p.stages[st]
		s.lat.ObserveShard(lane, d)
		s.arg1.Add(arg1)
		s.arg2.Add(arg2)
	}
	if def := &stageDefs[st]; def.kind != 0 {
		EmitSpan(def.kind, lane, def.name, start, d, arg1, arg2)
	}
}
