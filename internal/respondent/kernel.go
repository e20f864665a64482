package respondent

import (
	"math"

	"fpstudy/internal/parallel"
)

// calibrationCap bounds the number of abilities the bisection
// integrates per step. Profiles are i.i.d. across indices, so a
// deterministic prefix is an unbiased sample of the cohort; capping
// keeps calibration O(1) as n grows to millions while leaving every
// cohort up to the cap calibrated exactly as before.
const calibrationCap = 1 << 16

// abilityKernel is the batched calibration kernel for one ability
// distribution. Bisection evaluates E[invlogit(offset + a_i)] weighted
// by the answer/don't-know gates; writing
//
//	invlogit(offset + a) = 1 / (1 + exp(-offset) · exp(-a))
//
// lets the per-ability exp(-a_i) be computed once per cohort and shared
// by every question and every bisection step. Each step then costs one
// exp for the offset plus a multiply-divide sweep over the cohort —
// versus one exp per ability per step in the unbatched form (~30
// questions × 60 steps × |cohort| exp calls).
type abilityKernel struct {
	abil   []float64
	expNeg []float64 // expNeg[i] = exp(-abil[i])
}

// newAbilityKernel precomputes the per-cohort exp array (capped at
// calibrationCap abilities) with a deterministic parallel fill.
func newAbilityKernel(workers int, abil []float64) *abilityKernel {
	if len(abil) > calibrationCap {
		abil = abil[:calibrationCap]
	}
	k := &abilityKernel{abil: abil, expNeg: make([]float64, len(abil))}
	parallel.ForEach(workers, len(abil), func(i int) {
		k.expNeg[i] = math.Exp(-abil[i])
	})
	return k
}

// weights fills w[i] = (1-pUn)·(1-dkProb(a_i)) — the probability that
// respondent i answers question qm at all. It is offset-independent, so
// it is computed once per question, outside the bisection loop.
func (k *abilityKernel) weights(qm questionModel, w []float64) {
	for i, a := range k.abil {
		w[i] = (1 - qm.pUn) * (1 - qm.dkProb(a))
	}
}

// expectCorrect evaluates the expected correct fraction at the given
// offset: one exp, then a fused multiply-divide sweep accumulated with
// the fixed-shard deterministic sum (bit-identical at any worker
// count).
func (k *abilityKernel) expectCorrect(workers int, w []float64, offset float64) float64 {
	t := math.Exp(-offset)
	en := k.expNeg
	s := parallel.SumShards(workers, len(en), func(lo, hi int) float64 {
		sub := 0.0
		for i := lo; i < hi; i++ {
			sub += w[i] / (1 + t*en[i])
		}
		return sub
	})
	return s / float64(len(en))
}

// calibrate finds the logit offset at which the expected fraction of
// respondents answering correctly equals target. w is caller-provided
// scratch of len(k.abil) so concurrent per-question calibrations don't
// share buffers.
func (k *abilityKernel) calibrate(workers int, qm questionModel, target float64, w []float64) float64 {
	k.weights(qm, w)
	lo, hi := -12.0, 12.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if k.expectCorrect(workers, w, mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// The sampler's correctness gate asks u < invlogit(offset + a) for every
// answered cell. It uses the same factoring as abilityKernel, with
// e^(-a) computed once per respondent and ability kind and e^(-offset)
// once per question, so a cell costs a multiply and a divide instead
// of a math.Exp. But the factored form does not round like the exact
// one, and the generated bytes are pinned to the exact decision, so it
// only brackets that decision:
//
//   - math.Exp is within 1 ulp (Go's documented bound), so each factor
//     carries a relative error below 2^-52, and the product adds 2^-53.
//   - The exact form rounds x = offset+a first. That perturbs e^(-x) by
//     a relative |x|·2^-53, below 40·2^-53 on the fast path, and its own
//     Exp adds one more ulp.
//   - The logistic 1/(1+q) has relative sensitivity q/(1+q) < 1 to q,
//     and each form rounds its add and divide once more.
//
// So the two probabilities differ by a relative 26·2^-52 ≈ 6e-15 at
// most: more than two orders of magnitude inside bracketRelTol. A u
// farther than bracketRelTol from the factored value therefore falls on
// the same side of both, and the decision is the exact one. A u inside
// the window, |x| ≥ bracketMaxLogit, or a non-finite value takes the
// exact path. TestCorrectGateBracket checks the bound and the decisions
// at the window's edges.
const (
	bracketRelTol   = 1e-12
	bracketMaxLogit = 40
	// expNegLimit keeps both factors normal and finite: for |v| below
	// it, e^(-v) lies in [1e-304, 1e304], where the 1-ulp bound holds.
	expNegLimit = 700
)

// expNeg returns e^(-v), the factor correctGate multiplies. Outside
// |v| < expNegLimit, where a factor could overflow or go subnormal, it
// returns NaN, which sends every decision that uses it to the exact
// path.
func expNeg(v float64) float64 {
	if !(math.Abs(v) < expNegLimit) {
		return math.NaN()
	}
	return math.Exp(-v)
}

// correctGate decides u < invlogit(offset + a), given the factors
// expNegOffset = expNeg(offset) and expNegA = expNeg(a). It returns the
// exact decision (see the bracket argument above).
func correctGate(u, offset, a, expNegOffset, expNegA float64) bool {
	x := offset + a
	if q := expNegOffset * expNegA; math.Abs(x) < bracketMaxLogit && !math.IsNaN(q) {
		p := 1 / (1 + q)
		if d := u - p; d > bracketRelTol*p || d < -bracketRelTol*p {
			return d < 0
		}
	}
	return u < invlogit(x)
}
