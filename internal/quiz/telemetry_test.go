package quiz

import (
	"testing"

	"fpstudy/internal/telemetry"
)

// TestOracleObserver pins the FP-exception bridge contract: with the
// telemetry probe installed, the exception counters see the softfloat
// operations an oracle runs, and the oracle's verdict is identical with
// and without the probe.
func TestOracleObserver(t *testing.T) {
	q := CoreQuestions()[0] // commutativity: 100k observed additions
	before := q.Oracle()

	reg := telemetry.NewRegistry()
	telemetry.Install(reg)
	defer telemetry.Install(nil)
	ops := reg.Counter(telemetry.MetricFPOps)
	inexact := reg.Counter(telemetry.MetricFPPrecision)

	during := q.Oracle()
	if during.Holds != before.Holds || during.Witness != before.Witness {
		t.Errorf("probe changed oracle outcome: %+v vs %+v", during, before)
	}
	if ops.Value() == 0 {
		t.Fatal("probe saw no operations during oracle evaluation")
	}
	if inexact.Value() == 0 {
		t.Error("commutativity sampling raised no inexact events (implausible)")
	}

	telemetry.Install(nil)
	n := ops.Value()
	after := q.Oracle()
	if after.Holds != before.Holds {
		t.Error("uninstalling the probe changed oracle outcome")
	}
	if ops.Value() != n {
		t.Error("exception counters still fed after Install(nil)")
	}
}
