package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fpstudy/internal/runlog"
)

func trendMain(args []string) int {
	fs := flag.NewFlagSet("fpstat trend", flag.ExitOnError)
	ledgerPath := fs.String("ledger", os.Getenv("FPSTUDY_RUNLOG"), "run ledger (JSONL; default $FPSTUDY_RUNLOG); missing file reports as empty")
	k := fs.Float64("k", 0, "robust z-score cut for drift flagging (default 3.5)")
	floor := fs.Float64("floor", 0, "relative deviation floor below which points never drift (default 0.10)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fpstat trend [-ledger file] [-k N] [-floor N]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	out, err := trendReport(*ledgerPath, DriftParams{K: *k, RelFloor: *floor})
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

// seriesName keys a record's wall time by the tool and its arguments:
// `fpgen -n 199` and `fpgen -n 1000000` are different workloads, and
// one drifting against the other says nothing about the code.
func seriesName(r runlog.Record) string {
	return strings.Join(append([]string{r.Tool}, r.Args...), " ") + " wall_seconds"
}

// renderSeries writes the summary row for every series and detail
// lines for each drifted point, annotating points whose host differs
// from the modal host as likely host variance.
func renderSeries(b *strings.Builder, ss *seriesSet, modal string, p DriftParams) {
	fmt.Fprintf(b, "%-52s %6s %14s %14s %6s\n", "series", "points", "median", "band(+/-)", "drift")
	var drifted []string
	for _, name := range ss.order {
		s := ss.byKey[name]
		sum := DetectDrift(s.values, p)
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

// trendReport renders the ledger's trajectories. A missing ledger is
// reported inline, never an error.
func trendReport(ledgerPath string, p DriftParams) (string, error) {
	var b strings.Builder
	b.WriteString("## Run ledger\n\n")
	recs, skipped, err := runlog.Read(ledgerPath)
	switch {
	case ledgerPath == "" || os.IsNotExist(err):
		fmt.Fprintf(&b, "no ledger at %q\n", ledgerPath)
		return b.String(), nil
	case err != nil:
		return "", err
	case len(recs) == 0:
		fmt.Fprintf(&b, "%s: no parsable records (%d line(s) skipped)\n", ledgerPath, skipped)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "%s: %d records (%d line(s) skipped)\n", ledgerPath, len(recs), skipped)
	ss := newSeriesSet()
	hosts := make([]string, 0, len(recs))
	for _, r := range recs {
		host := r.Host.Key()
		hosts = append(hosts, host)
		ss.add(seriesName(r), r.WallSeconds, host, r.Timestamp)
		if r.ExitStatus != 0 {
			fmt.Fprintf(&b, "nonzero exit: %s @ %s (status %d)\n", r.Tool, r.Timestamp, r.ExitStatus)
		}
	}
	modal := modalHost(hosts)
	fmt.Fprintf(&b, "modal host: %s\n\n", modal)
	renderSeries(&b, ss, modal, p)
	return b.String(), nil
}
