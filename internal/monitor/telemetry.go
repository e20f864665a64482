package monitor

import (
	"fpstudy/internal/ieee754"
	"fpstudy/internal/telemetry"
)

// EventCounter is the minimal metric sink the aggregate exception
// bridge needs. *telemetry.Counter satisfies it; tests and tools may
// pass their own.
type EventCounter interface {
	Add(delta int64)
}

// CountingObserver returns an ieee754.Env observer that feeds aggregate
// counters: ops counts every observed operation, conds counts each
// monitored condition's events (one event per operation that raised the
// flag), and divZero counts divide-by-zero separately (mirroring
// Monitor.Report). Any nil sink is skipped, and missing map entries are
// fine, so a caller can subscribe to a subset of conditions.
//
// Unlike Monitor, the returned observer keeps no per-event state — it
// is a handful of atomic increments — so it is safe to share across
// goroutines and cheap enough to leave installed for a whole run. It is
// the bridge between the per-operation exception reports and the
// telemetry registry: the quiz oracles attach it while a
// telemetry probe is installed, and it works on any ieee754.Env.
func CountingObserver(ops EventCounter, conds map[Condition]EventCounter, divZero EventCounter) func(ieee754.OpEvent) {
	// Resolve the condition sinks into a dense array once so the
	// per-operation path does no map lookups.
	var sinks [numConditions]EventCounter
	for c, sink := range conds {
		if c >= 0 && c < numConditions {
			sinks[c] = sink
		}
	}
	flags := [numConditions]ieee754.Flags{}
	for _, c := range Conditions() {
		flags[c] = c.Flag()
	}
	return func(ev ieee754.OpEvent) {
		if ops != nil {
			ops.Add(1)
		}
		if ev.Raised == 0 {
			return
		}
		for c := Condition(0); c < numConditions; c++ {
			if sinks[c] != nil && ev.Raised.Has(flags[c]) {
				sinks[c].Add(1)
			}
		}
		if divZero != nil && ev.Raised.Has(ieee754.FlagDivByZero) {
			divZero.Add(1)
		}
	}
}

// MetricName returns the conventional telemetry counter name for a
// condition's aggregate event count ("fp.exceptions.overflow", ...).
func (c Condition) MetricName() string {
	switch c {
	case Overflow:
		return telemetry.MetricFPOverflow
	case Underflow:
		return telemetry.MetricFPUnderflow
	case Precision:
		return telemetry.MetricFPPrecision
	case Invalid:
		return telemetry.MetricFPInvalid
	case Denorm:
		return telemetry.MetricFPDenorm
	}
	return "fp.exceptions.unknown"
}
