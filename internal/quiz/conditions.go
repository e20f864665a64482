package quiz

import (
	"fpstudy/internal/ieee754"
	"fpstudy/internal/telemetry"
)

// Condition identifies one of the suspicion quiz's five exceptional
// conditions, in the paper's order.
type Condition int

const (
	Overflow Condition = iota
	Underflow
	Precision // the IEEE inexact exception
	Invalid
	Denorm
	numConditions
)

// Conditions lists all five conditions in quiz order.
func Conditions() []Condition {
	return []Condition{Overflow, Underflow, Precision, Invalid, Denorm}
}

// String returns the paper's name for the condition.
func (c Condition) String() string {
	switch c {
	case Overflow:
		return "Overflow"
	case Underflow:
		return "Underflow"
	case Precision:
		return "Precision"
	case Invalid:
		return "Invalid"
	case Denorm:
		return "Denorm"
	}
	return "invalidCondition"
}

// Flag maps the condition to its ieee754 exception flag.
func (c Condition) Flag() ieee754.Flags {
	switch c {
	case Overflow:
		return ieee754.FlagOverflow
	case Underflow:
		return ieee754.FlagUnderflow
	case Precision:
		return ieee754.FlagInexact
	case Invalid:
		return ieee754.FlagInvalid
	case Denorm:
		return ieee754.FlagDenormal
	}
	return 0
}

// GroundTruthSuspicion is the paper's "arguably reasonable ranking" of
// how suspicious each condition should make a developer, on the quiz's
// 1-5 Likert scale: Invalid (NaN) by far the most suspicious, then
// Overflow, then the remaining three.
func (c Condition) GroundTruthSuspicion() int {
	switch c {
	case Invalid:
		return 5
	case Overflow:
		return 4
	case Underflow:
		return 2
	case Denorm:
		return 2
	case Precision:
		return 1
	}
	return 0
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

// EventCounter is the minimal metric sink the aggregate exception
// bridge needs. *telemetry.Counter satisfies it; tests may pass their
// own.
type EventCounter interface {
	Add(delta int64)
}

// CountingObserver returns an ieee754.Env observer that feeds aggregate
// counters: ops counts every observed operation, conds counts each
// condition's events (one event per operation that raised the flag),
// and divZero counts divide-by-zero separately. Any nil sink is
// skipped, and missing map entries are fine, so a caller can subscribe
// to a subset of conditions.
//
// The returned observer keeps no per-event state — it is a handful of
// atomic increments — so it is safe to share across goroutines and
// cheap enough to leave installed for a whole run. It is the bridge
// between the per-operation exception reports and the telemetry
// registry: the quiz oracles attach it while a telemetry probe is
// installed (see oracleEnv).
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
