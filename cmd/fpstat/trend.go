package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpstudy/internal/benchcmp"
	"fpstudy/internal/runlog"
)

func trendMain(args []string) int {
	fs := flag.NewFlagSet("fpstat trend", flag.ExitOnError)
	history := fs.String("history", "BENCH_history.jsonl", "benchmark trajectory (JSONL); missing file reports as empty")
	ledgerPath := fs.String("ledger", os.Getenv("FPSTUDY_RUNLOG"), "run ledger (JSONL; default $FPSTUDY_RUNLOG); missing file reports as empty")
	k := fs.Float64("k", 0, "robust z-score cut for drift flagging (default 3.5)")
	floor := fs.Float64("floor", 0, "relative deviation floor below which points never drift (default 0.10)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpstat trend [-history file] [-ledger file] [-k N] [-floor N]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	out, err := trendReport(*history, *ledgerPath, benchcmp.DriftParams{K: *k, RelFloor: *floor})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpstat trend:", err)
		return 2
	}
	fmt.Print(out)
	return 0
}

// series is one metric trajectory: parallel slices of value, the
// host fingerprint that measured each point, and its timestamp.
type series struct {
	name   string
	values []float64
	hosts  []string
	times  []string
}

// seriesSet accumulates series in first-seen order.
type seriesSet struct {
	order []string
	byKey map[string]*series
}

func newSeriesSet() *seriesSet { return &seriesSet{byKey: map[string]*series{}} }

func (ss *seriesSet) add(name string, v float64, host, ts string) {
	s, ok := ss.byKey[name]
	if !ok {
		s = &series{name: name}
		ss.byKey[name] = s
		ss.order = append(ss.order, name)
	}
	s.values = append(s.values, v)
	s.hosts = append(s.hosts, host)
	s.times = append(s.times, ts)
}

// modalHost returns the most frequent host key across entries (ties
// break toward the earliest seen) — the baseline a drifted point's
// host is compared against when deciding "host variance or code?".
func modalHost(hosts []string) string {
	counts := map[string]int{}
	var best string
	for _, h := range hosts {
		counts[h]++
		if best == "" || counts[h] > counts[best] {
			best = h
		}
	}
	return best
}

// historySeries flattens the trajectory into per-(n, workers) metric
// series: pipeline throughput and allocs, plus per-stage p99 latency
// when an entry recorded quantiles (v7+ eras; older entries simply
// contribute no points to those series).
func historySeries(entries []benchcmp.HistoryEntry) (*seriesSet, []string) {
	ss := newSeriesSet()
	hosts := make([]string, 0, len(entries))
	for _, e := range entries {
		host := hostKey(e.Host)
		hosts = append(hosts, host)
		for _, r := range e.Runs {
			cfg := fmt.Sprintf("n=%d/workers=%d", r.N, r.Workers)
			ss.add(cfg+" respondents_per_sec", r.RespondentsPerSec, host, e.Timestamp)
			ss.add(cfg+" allocs_per_respondent", r.AllocsPerRespondent, host, e.Timestamp)
			for _, l := range r.Latency {
				ss.add(fmt.Sprintf("%s p99(%s)_ns", cfg, l.Stage), l.P99NS, host, e.Timestamp)
			}
		}
	}
	return ss, hosts
}

// hostKey renders a benchcmp host fingerprint compactly (the runlog
// Host has the same fields and the same rendering).
func hostKey(h benchcmp.Host) string {
	return runlog.Host{GOOS: h.GOOS, GOARCH: h.GOARCH, NumCPU: h.NumCPU,
		GOMAXPROCS: h.GOMAXPROCS, GoVersion: h.GoVersion, SerialHost: h.SerialHost}.Key()
}

// renderSeries writes the summary row for every series and detail
// lines for each drifted point, annotating points whose host differs
// from the modal host as likely host variance.
func renderSeries(b *strings.Builder, ss *seriesSet, modal string, p benchcmp.DriftParams) {
	fmt.Fprintf(b, "%-52s %6s %14s %14s %6s\n", "series", "points", "median", "band(+/-)", "drift")
	var drifted []string
	for _, name := range ss.order {
		s := ss.byKey[name]
		sum := benchcmp.DetectDrift(s.values, p)
		fmt.Fprintf(b, "%-52s %6d %14.4g %14.4g %6d\n", s.name, len(s.values), sum.Median, sum.Band, sum.NumDrift)
		for i, pt := range sum.Points {
			if !pt.Drift {
				continue
			}
			note := ""
			if s.hosts[i] != modal {
				note = fmt.Sprintf("  [host differs from modal (%s) — likely host variance]", s.hosts[i])
			}
			drifted = append(drifted, fmt.Sprintf("  %s @ %s: %.4g (%+.1f%% vs median)%s",
				s.name, s.times[i], pt.Value, 100*pt.Deviation, note))
		}
	}
	if len(drifted) > 0 {
		b.WriteString("\ndrifted points:\n")
		for _, d := range drifted {
			b.WriteString(d + "\n")
		}
	}
}

// trendReport renders the full trajectory report. A missing history
// or ledger file is reported inline, never an error: the observatory
// is useful with either source alone.
func trendReport(historyPath, ledgerPath string, p benchcmp.DriftParams) (string, error) {
	var b strings.Builder

	b.WriteString("## Benchmark trajectory\n\n")
	switch entries, skipped, err := benchcmp.ReadHistoryLenient(historyPath); {
	case historyPath == "" || os.IsNotExist(err):
		fmt.Fprintf(&b, "no history at %q\n", historyPath)
	case err != nil:
		return "", err
	case len(entries) == 0:
		fmt.Fprintf(&b, "%s: no parsable entries (%d line(s) skipped)\n", historyPath, skipped)
	default:
		fmt.Fprintf(&b, "%s: %d entries (%d line(s) skipped)\n", historyPath, len(entries), skipped)
		ss, hosts := historySeries(entries)
		modal := modalHost(hosts)
		fmt.Fprintf(&b, "modal host: %s\n\n", modal)
		renderSeries(&b, ss, modal, p)
	}

	b.WriteString("\n## Run ledger\n\n")
	switch recs, skipped, err := runlog.Read(ledgerPath); {
	case ledgerPath == "" || os.IsNotExist(err):
		fmt.Fprintf(&b, "no ledger at %q\n", ledgerPath)
	case err != nil:
		return "", err
	case len(recs) == 0:
		fmt.Fprintf(&b, "%s: no parsable records (%d line(s) skipped)\n", ledgerPath, skipped)
	default:
		fmt.Fprintf(&b, "%s: %d records (%d line(s) skipped)\n", ledgerPath, len(recs), skipped)
		ss := newSeriesSet()
		hosts := make([]string, 0, len(recs))
		for _, r := range recs {
			host := r.Host.Key()
			hosts = append(hosts, host)
			ss.add(r.Tool+" wall_seconds", r.WallSeconds, host, r.Timestamp)
			if r.ExitStatus != 0 {
				fmt.Fprintf(&b, "nonzero exit: %s @ %s (status %d)\n", r.Tool, r.Timestamp, r.ExitStatus)
			}
		}
		b.WriteString("\n")
		renderSeries(&b, ss, modalHost(hosts), p)
	}
	return b.String(), nil
}
