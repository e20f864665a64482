package main

import (
	"math"
	"sort"
)

// Robust drift detection over run-ledger trajectories. A metric series
// (one value per ledger record) is summarized by its median and MAD
// (median absolute deviation): both are order statistics, so a few
// wild outliers — exactly what host noise produces — cannot drag the
// band the way a mean/stddev band would be dragged. A point drifts when it sits further from the
// median than max(K·1.4826·MAD, RelFloor·|median|): the 1.4826 factor
// makes the MAD consistent with a normal σ, K is the usual robust
// z-cut, and the relative floor keeps a near-constant series (MAD≈0)
// from flagging every timer-jitter wiggle.

// DriftParams tune DetectDrift. Zero values take defaults.
type DriftParams struct {
	// K is the robust z-score cut (default 3.5, the standard
	// modified-z outlier threshold).
	K float64
	// RelFloor is the minimum relative deviation from the median that
	// can drift (default 0.10 — below the throughput noise floor a
	// "drift" is jitter even if the MAD is tiny).
	RelFloor float64
}

func (p DriftParams) withDefaults() DriftParams {
	if p.K == 0 {
		p.K = 3.5
	}
	if p.RelFloor == 0 {
		p.RelFloor = 0.10
	}
	return p
}

// DriftPoint is one series point's verdict.
type DriftPoint struct {
	Value float64
	// Deviation is (value-median)/median, signed (0 when the median
	// is 0).
	Deviation float64
	// Drift marks points outside the robust band.
	Drift bool
}

// DriftSummary is the robust summary of one metric series.
type DriftSummary struct {
	Median float64
	// MAD is the raw median absolute deviation (multiply by 1.4826
	// for a σ-consistent scale).
	MAD float64
	// Band is the absolute half-width of the no-drift interval around
	// the median: max(K·1.4826·MAD, RelFloor·|Median|).
	Band   float64
	Points []DriftPoint
	// NumDrift counts flagged points.
	NumDrift int
}

// median computes the series median without mutating xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// DetectDrift summarizes a series with median/MAD bands and flags the
// points outside them. Series shorter than 3 points never flag —
// there is no base rate to deviate from.
func DetectDrift(values []float64, p DriftParams) DriftSummary {
	p = p.withDefaults()
	med := median(values)
	dev := make([]float64, len(values))
	for i, v := range values {
		dev[i] = math.Abs(v - med)
	}
	mad := median(dev)
	s := DriftSummary{Median: med, MAD: mad}
	band := p.K * 1.4826 * mad
	if floor := p.RelFloor * math.Abs(med); band < floor {
		band = floor
	}
	s.Band = band
	for _, v := range values {
		pt := DriftPoint{Value: v}
		if med != 0 {
			pt.Deviation = (v - med) / med
		}
		if len(values) >= 3 && math.Abs(v-med) > band {
			pt.Drift = true
			s.NumDrift++
		}
		s.Points = append(s.Points, pt)
	}
	return s
}
