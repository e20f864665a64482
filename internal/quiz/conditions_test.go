package quiz

import (
	"sync/atomic"
	"testing"

	"fpstudy/internal/ieee754"
)

type testCounter struct{ v atomic.Int64 }

func (c *testCounter) Add(n int64) { c.v.Add(n) }

func TestGroundTruthRanking(t *testing.T) {
	// Invalid >> Overflow >> {Underflow, Denorm} >= Precision.
	if !(Invalid.GroundTruthSuspicion() > Overflow.GroundTruthSuspicion()) {
		t.Fatal("invalid should outrank overflow")
	}
	if !(Overflow.GroundTruthSuspicion() > Underflow.GroundTruthSuspicion()) {
		t.Fatal("overflow should outrank underflow")
	}
	if !(Underflow.GroundTruthSuspicion() >= Precision.GroundTruthSuspicion()) {
		t.Fatal("underflow should not rank below precision")
	}
}

func TestConditionsOrderMatchesPaper(t *testing.T) {
	want := []string{"Overflow", "Underflow", "Precision", "Invalid", "Denorm"}
	for i, c := range Conditions() {
		if c.String() != want[i] {
			t.Fatalf("condition %d = %v, want %v", i, c, want[i])
		}
	}
}

// TestCountingObserver drives the bridge with operations known to raise
// each condition and checks its aggregate counts against the raised
// flags of every operation, as a plain observer records them.
func TestCountingObserver(t *testing.T) {
	ops := &testCounter{}
	divZero := &testCounter{}
	conds := map[Condition]EventCounter{}
	counters := map[Condition]*testCounter{}
	for _, c := range Conditions() {
		tc := &testCounter{}
		counters[c] = tc
		conds[c] = tc
	}

	var raised []ieee754.Flags
	count := CountingObserver(ops, conds, divZero)
	var env ieee754.Env
	env.Observer = func(ev ieee754.OpEvent) {
		raised = append(raised, ev.Raised)
		count(ev)
	}
	f := ieee754.Binary64
	big := f.FromFloat64(&env, 1e308)
	tiny := f.FromFloat64(&env, 5e-324)
	one := f.FromFloat64(&env, 1)
	three := f.FromFloat64(&env, 3)
	_ = f.Mul(&env, big, big)                     // overflow (+ inexact)
	_ = f.Mul(&env, tiny, tiny)                   // underflow (+ denormal operand)
	_ = f.Div(&env, one, three)                   // inexact
	_ = f.Div(&env, f.Zero(false), f.Zero(false)) // invalid
	_ = f.Div(&env, one, f.Zero(false))           // divide-by-zero

	want := map[Condition]int64{}
	var wantDivZero int64
	for _, r := range raised {
		for _, c := range Conditions() {
			if r.Has(c.Flag()) {
				want[c]++
			}
		}
		if r.Has(ieee754.FlagDivByZero) {
			wantDivZero++
		}
	}
	for _, c := range Conditions() {
		if want[c] == 0 {
			t.Errorf("%s never occurred; the workload should raise every condition", c)
		}
		if got := counters[c].v.Load(); got != want[c] {
			t.Errorf("%s: bridge counted %d, operations raised it %d times", c, got, want[c])
		}
	}
	if got := ops.v.Load(); got != int64(len(raised)) {
		t.Errorf("ops: bridge counted %d, observed %d operations", got, len(raised))
	}
	if wantDivZero == 0 {
		t.Error("divide-by-zero never occurred")
	}
	if got := divZero.v.Load(); got != wantDivZero {
		t.Errorf("divzero: bridge counted %d, operations raised it %d times", got, wantDivZero)
	}
}

// TestCountingObserverPartial checks nil sinks and missing conditions
// are tolerated.
func TestCountingObserverPartial(t *testing.T) {
	inv := &testCounter{}
	obs := CountingObserver(nil, map[Condition]EventCounter{Invalid: inv}, nil)
	var env ieee754.Env
	env.Observer = obs
	f := ieee754.Binary64
	_ = f.Div(&env, f.Zero(false), f.Zero(false)) // invalid
	_ = f.Div(&env, f.FromFloat64(&env, 1), f.FromFloat64(&env, 3))
	if inv.v.Load() != 1 {
		t.Errorf("invalid count = %d, want 1", inv.v.Load())
	}
}

func TestConditionMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Conditions() {
		name := c.MetricName()
		if seen[name] {
			t.Errorf("duplicate metric name %q", name)
		}
		seen[name] = true
		if name == "fp.exceptions.unknown" {
			t.Errorf("%s has no metric name", c)
		}
	}
}
