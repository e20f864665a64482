package telemetry

import (
	"sync/atomic"
	"time"
)

// This file is the stage probe: the one instrumentation path of the
// pipeline. Packages that do block-level work (parallel, respondent,
// colstore, query, quiz) call Start/Done or Record directly at each
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

	MetricForEachCalls = "parallel.foreach_calls"
	MetricItems        = "parallel.items"
	MetricBusyNS       = "parallel.busy_ns"
	MetricShards       = "parallel.shards"
	MetricPoolTasks    = "parallel.pool_tasks"
	MetricPoolBusyNS   = "parallel.pool_busy_ns"

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
	// long -n 1000000 run surfaces its memory behaviour on /debug/vars
	// while executing.
	MetricHeapAlloc = "mem.heap_alloc"
	MetricGCCount   = "mem.gc_count"
	// MetricInternedStrings gauges the size of the columnar string
	// arena after generation (zero for generated cohorts — every answer
	// is a code; nonzero only when converted row data carried free
	// text).
	MetricInternedStrings = "colstore.interned_strings"

	// The IEEE exception counters: the quiz oracles' environment feeds
	// them through quiz.CountingObserver while a probe is installed.
	// fp.ops counts every observed softfloat operation; each
	// fp.exceptions.<cond> counts operations that raised the condition.
	MetricFPOps       = "fp.ops"
	MetricFPOverflow  = "fp.exceptions.overflow"
	MetricFPUnderflow = "fp.exceptions.underflow"
	MetricFPPrecision = "fp.exceptions.precision"
	MetricFPInvalid   = "fp.exceptions.invalid"
	MetricFPDenorm    = "fp.exceptions.denorm"
	MetricFPDivByZero = "fp.exceptions.divbyzero"
)

// fpMetrics lists the exception counters Install registers up front, so
// a snapshot carries them (at zero) even when the process derived its
// answer key before the probe was installed.
var fpMetrics = [...]string{MetricFPOps, MetricFPOverflow, MetricFPUnderflow,
	MetricFPPrecision, MetricFPInvalid, MetricFPDenorm, MetricFPDivByZero}

// Stage identifies one instrumented block-level operation.
type Stage uint8

const (
	StageSampleBlock    Stage = iota // one 4096-respondent response-sampling block
	StageCalibrate                   // one question-model bisection
	StageGradeBatch                  // one ScoreAllColumns batch
	StageFPDSEncode                  // one FPDS column block encode
	StageFPDSDecode                  // one FPDS column block decode
	StageQueryBlock                  // one query-engine scan block (load+filter+key+aggregate)
	StageParallelShard               // one MapShards/SumShards shard
	StageParallelWorker              // one worker's busy time in a fan-out
	StageParallelWait                // one fan-out's aggregate wait (workers*wall-busy)
	StagePoolTask                    // one parallel.Pool task
	numStages
)

// stageDef says what one observation of a stage feeds. Every field is
// optional; "" and 0 mean "not fed".
type stageDef struct {
	latency string // latency histogram observing the duration
	calls   string // counter advanced by one per observation
	arg1    string // counter advanced by the observation's arg1
	arg2    string // counter advanced by the observation's arg2
	ns      string // counter advanced by the duration in nanoseconds
	// kind and event are the trace event recorded on the observation's
	// lane while a tracer is set, with arg1/arg2 as its arguments.
	kind  EventKind
	event string
}

var stageDefs = [numStages]stageDef{
	StageSampleBlock: {latency: "latency.sample_block"},
	StageCalibrate:   {latency: "latency.calibrate"},
	StageGradeBatch:  {latency: "latency.grade_batch", kind: EvBatch, event: "grade-batch"},
	StageFPDSEncode:  {latency: "latency.fpds_encode_block"},
	StageFPDSDecode:  {latency: "latency.fpds_decode_block"},
	StageQueryBlock: {latency: "latency.query_block",
		arg1: MetricQueryBlocksSkipped, arg2: MetricQueryRowsScanned},
	StageParallelShard: {latency: "latency.parallel_shard", calls: MetricShards,
		kind: EvShard, event: "shard"},
	StageParallelWorker: {latency: "latency.parallel_worker_busy", kind: EvWorker, event: "worker"},
	StageParallelWait: {latency: "latency.parallel_wait", calls: MetricForEachCalls,
		arg1: MetricBusyNS, arg2: MetricItems},
	StagePoolTask: {calls: MetricPoolTasks, ns: MetricPoolBusyNS},
}

// Name returns the stage's name: its latency histogram, or for a
// counter-only stage its call counter.
func (st Stage) Name() string {
	if d := &stageDefs[st]; d.latency != "" {
		return d.latency
	}
	return stageDefs[st].calls
}

// stageSink holds one stage's resolved registry handles; nil handles
// are no-ops.
type stageSink struct {
	lat                   *LatencyHist
	calls, arg1, arg2, ns *Counter
}

type probe struct {
	reg    *Registry
	stages [numStages]stageSink
}

// installed is the process-wide probe; nil (the default) turns every
// observation into a pointer load and a branch.
var installed atomic.Pointer[probe]

// Install makes reg the process-wide sink of every stage observation
// and of the quiz oracles' exception counters (nil uninstalls). It
// registers every stage metric and exception counter up front, so a
// snapshot names them all from the start. The probe is global because
// the pipeline has one worker-pool layer and one oracle cache: install
// once at startup; installing mid-run affects only later observations.
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
		if d.latency != "" {
			s.lat = reg.Latency(d.latency)
		}
		s.calls, s.arg1, s.arg2, s.ns = counter(d.calls), counter(d.arg1), counter(d.arg2), counter(d.ns)
	}
	for _, name := range fpMetrics {
		reg.Counter(name)
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
//   - its counters advance by one call, arg1, arg2 and d, as the stage
//     defines;
//   - while a tracer is set, a stage with a trace kind records an
//     interval event on lane with arg1/arg2 as its arguments (lane 0 is
//     the pipeline control lane, lane w+1 worker w).
//
// Record is a no-op for whatever is not installed.
func Record(st Stage, lane int, start time.Time, d time.Duration, arg1, arg2 int64) {
	if p := installed.Load(); p != nil {
		s := &p.stages[st]
		s.lat.ObserveShard(lane, d)
		s.calls.Inc()
		s.arg1.Add(arg1)
		s.arg2.Add(arg2)
		s.ns.Add(int64(d))
	}
	if def := &stageDefs[st]; def.kind != 0 {
		EmitSpan(def.kind, lane, def.event, start, d, arg1, arg2)
	}
}
