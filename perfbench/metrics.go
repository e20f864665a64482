package main

import (
	"math"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetric reads one per-layer metric off a span tree: a field
// summed over the spans of the named layer calls.
type layerMetric struct {
	name, unit string
	spans      []string
	field      func(*layerTotal) float64
}

const mb = 1 << 20

func selfS(lt *layerTotal) float64    { return lt.self.Seconds() }
func allocMB(lt *layerTotal) float64  { return float64(lt.alloc) / mb }
func ioMB(lt *layerTotal) float64     { return float64(lt.io) / mb }
func scanned(lt *layerTotal) float64  { return float64(lt.scanned) }
func selected(lt *layerTotal) float64 { return float64(lt.selected) }

// Span names: one per public call the benchmark times.
const (
	spGenMain      = "respondent.generate_main"
	spGenStudents  = "respondent.generate_students"
	spEncode       = "colstore.encode"
	spDecode       = "colstore.decode"
	spOpenShard    = "colstore.open_shard"
	spGrade        = "quiz.grade"
	spFigures      = "core.figures"
	spClaims       = "core.claims"
	spItems        = "core.items"
	spCalibration  = "core.calibration"
	spAssociation  = "core.association"
	spIntervention = "core.intervention"
	spConfidence   = "core.confidence"
	spStudyRun     = "core.study_run"
	spRender       = "report.render"
	spParse        = "query.parse"
	spRunMem       = "query.run_mem"
	spRunStream    = "query.run_stream"
	spCheck        = "bench.check"
)

var layerMetrics = []layerMetric{
	{"respondent.generate_main_s", "s", []string{spGenMain}, selfS},
	{"respondent.generate_main_alloc_mb", "MB", []string{spGenMain}, allocMB},
	{"respondent.generate_students_s", "s", []string{spGenStudents}, selfS},
	{"colstore.encode_s", "s", []string{spEncode}, selfS},
	{"colstore.encode_mb", "MB", []string{spEncode}, ioMB},
	{"colstore.decode_s", "s", []string{spDecode}, selfS},
	{"colstore.decode_mb", "MB", []string{spDecode}, ioMB},
	{"colstore.decode_alloc_mb", "MB", []string{spDecode}, allocMB},
	{"colstore.open_shard_s", "s", []string{spOpenShard}, selfS},
	{"colstore.stream_mb", "MB", []string{spOpenShard, spRunStream}, ioMB},
	{"quiz.grade_s", "s", []string{spGrade}, selfS},
	{"quiz.grade_alloc_mb", "MB", []string{spGrade}, allocMB},
	{"core.figures_s", "s", []string{spFigures}, selfS},
	{"core.figures_alloc_mb", "MB", []string{spFigures}, allocMB},
	{"core.claims_s", "s", []string{spClaims}, selfS},
	{"core.items_s", "s", []string{spItems}, selfS},
	{"core.items_alloc_mb", "MB", []string{spItems}, allocMB},
	{"core.calibration_s", "s", []string{spCalibration}, selfS},
	{"core.association_s", "s", []string{spAssociation}, selfS},
	{"core.intervention_s", "s", []string{spIntervention}, selfS},
	{"core.intervention_alloc_mb", "MB", []string{spIntervention}, allocMB},
	{"core.confidence_s", "s", []string{spConfidence}, selfS},
	{"report.render_s", "s", []string{spRender}, selfS},
	{"query.parse_s", "s", []string{spParse}, selfS},
	{"query.run_mem_s", "s", []string{spRunMem}, selfS},
	{"query.run_stream_s", "s", []string{spRunStream}, selfS},
	{"query.rows_scanned", "count", []string{spRunMem, spRunStream}, scanned},
	{"query.rows_selected", "count", []string{spRunMem, spRunStream}, selected},
}

// Derived per-layer metrics, computed from the ones above.
const (
	selectivityMetric = "query.selectivity"
	coverageMetric    = "trace.coverage"
)

// layerValues reads every layerMetric off the totals of one root.
// present reports whether any of the metric's spans ran under it.
func layerValues(totals map[string]*layerTotal) (vals map[string]float64, present map[string]bool) {
	vals, present = map[string]float64{}, map[string]bool{}
	for _, m := range layerMetrics {
		for _, name := range m.spans {
			if lt := totals[name]; lt != nil {
				vals[m.name] += m.field(lt)
				present[m.name] = true
			}
		}
	}
	return vals, present
}

// perLayer combines the traced passes with the traced set-up: each
// metric is its median over the passes that called the layer or, for a
// layer this workload's pass never calls, its value in the set-up
// (whose cross-check calls every layer at small n). fromSetup lists
// the metrics taken from the set-up.
func perLayer(setup map[string]*layerTotal, passes []map[string]*layerTotal, coverages []float64) (out map[string]metric, fromSetup []string) {
	setupVals, _ := layerValues(setup)
	per := map[string][]float64{}
	for _, p := range passes {
		vals, present := layerValues(p)
		for name := range present {
			per[name] = append(per[name], vals[name])
		}
	}
	out = map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := median(per[m.name])
		if !ok {
			v = setupVals[m.name]
			fromSetup = append(fromSetup, m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	sel := 0.0
	if sc := out["query.rows_scanned"].Value; sc > 0 {
		sel = out["query.rows_selected"].Value / sc
	}
	out[selectivityMetric] = metric{sel, "ratio"}
	cov, _ := median(coverages)
	out[coverageMetric] = metric{cov, "ratio"}
	return out, fromSetup
}

func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2], true
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2, true
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}
