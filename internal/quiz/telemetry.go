package quiz

import (
	"sync/atomic"

	"fpstudy/internal/ieee754"
	"fpstudy/internal/telemetry"
)

// oracleExcs counts observed oracle operations that raised any flag,
// feeding the per-batch FP-exception deltas in grading trace events. It
// accumulates only while telemetry is on (see oracleEnv), which keeps
// the common uninstrumented path on the softfloat's fast finish.
var oracleExcs atomic.Int64

// oracleEnv returns the default IEEE environment the quiz oracles
// evaluate under. While telemetry is on (a probe installed or a tracer
// set) it attaches an observer that feeds the probe's exception
// counters through CountingObserver — how many Overflow / Underflow /
// Precision / Invalid / Denorm (plus divide-by-zero and total) events
// the oracle evaluations produced — and the trace-batch tally;
// otherwise it returns the bare environment so oracle evaluation keeps
// the observer-free fast path.
//
// Observation only: the observer sees each completed operation and its
// raised flags but cannot change results, so the derived answer key is
// identical with telemetry on or off. The oracles cache their results
// (the answer key is derived once per process), so these counts appear
// once, at the first scoring or calibration, not per respondent.
func oracleEnv() ieee754.Env {
	var e ieee754.Env
	if !telemetry.On() {
		return e
	}
	reg := telemetry.Installed()
	conds := map[Condition]EventCounter{}
	for _, c := range Conditions() {
		conds[c] = reg.Counter(c.MetricName())
	}
	count := CountingObserver(reg.Counter(telemetry.MetricFPOps), conds,
		reg.Counter(telemetry.MetricFPDivByZero))
	e.Observer = func(ev ieee754.OpEvent) {
		if ev.Raised != 0 {
			oracleExcs.Add(1)
		}
		count(ev)
	}
	return e
}
