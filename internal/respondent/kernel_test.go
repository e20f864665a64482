package respondent

import (
	"math"
	"testing"

	"fpstudy/internal/parallel"
)

// TestCorrectGateBracket checks the bracket behind the sampler's
// correctness gate. Over 10^7 random (offset, ability) pairs the
// factored probability stays within a relative 1e-13 of the exact
// invlogit, ten times inside bracketRelTol. At adversarial u — the
// exact value and its two neighbours, the factored value, and both
// window edges — and at |x| ≥ 40, ±Inf and NaN, correctGate must
// decide exactly as u < invlogit(offset+a).
func TestCorrectGateBracket(t *testing.T) {
	rng := parallel.NewXRand()
	rng.SeedAt(2018, 0, 0)
	const pairs = 10_000_000
	worst := 0.0
	for i := 0; i < pairs; i++ {
		offset := 24*rng.Float64() - 12
		z, _ := rng.NormPair()
		a := 3 * z
		fact := 1 / (1 + expNeg(offset)*expNeg(a))
		exact := invlogit(offset + a)
		if e := math.Abs(fact/exact - 1); e > worst {
			worst = e
		}
	}
	if worst >= 1e-13 {
		t.Fatalf("factored invlogit off by a relative %.3g, want < 1e-13", worst)
	}
	t.Logf("worst relative error over %d pairs: %.3g", pairs, worst)

	check := func(u, offset, a float64) {
		t.Helper()
		got := correctGate(u, offset, a, expNeg(offset), expNeg(a))
		if want := u < invlogit(offset+a); got != want {
			t.Errorf("correctGate(u=%v, offset=%v, a=%v) = %v, exact decision %v", u, offset, a, got, want)
		}
	}
	adversarial := func(offset, a float64) {
		t.Helper()
		exact := invlogit(offset + a)
		fact := 1 / (1 + expNeg(offset)*expNeg(a))
		for _, u := range []float64{
			exact, math.Nextafter(exact, 0), math.Nextafter(exact, 2),
			fact, fact * (1 - bracketRelTol), fact * (1 + bracketRelTol),
			0, 0.5, 1 - 0x1p-53,
		} {
			check(u, offset, a)
		}
	}
	for i := 0; i < 100_000; i++ {
		offset := 24*rng.Float64() - 12
		z, _ := rng.NormPair()
		adversarial(offset, 3*z)
	}
	inf := math.Inf(1)
	for _, c := range []struct{ offset, a float64 }{
		{12, 28}, {12, 27.999999999999996}, {-12, -28}, {0, 40}, {0, -40}, {5, 100}, {-5, -100},
		{0, inf}, {0, -inf}, {inf, 0}, {-inf, 0}, {inf, -inf},
		{0, math.NaN()}, {math.NaN(), 0},
		{800, -790}, {-800, 790}, {0, 699.999}, {0, -700},
		{0, 0}, {-12, 12}, {1e-300, -1e-300},
	} {
		adversarial(c.offset, c.a)
	}
}
