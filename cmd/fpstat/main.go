// Command fpstat is the read side of the repository's perf records: it
// turns the run ledger (internal/runlog) and perfbench results into
// answers.
//
//	fpstat trend                 # per-invocation wall-time trajectories with robust drift bands
//	fpstat diff old.out new.out  # judge two perfbench outputs against BENCHMARK.json
//
// trend reads the ledger tolerantly — blank lines, a truncated final
// line from a crashed writer — and flags points outside a median/MAD
// band (DetectDrift), annotating drifted points whose host fingerprint
// differs from the series' modal host as likely host variance rather
// than code.
//
// diff reads two perfbench outputs (each the standard output of
// `python3 perfbench/run.py`) and judges every end-to-end metric of
// BENCHMARK.json against its direction and relative bound; when both
// carry per-layer metrics it ranks the layers by absolute change.
//
// fpstat only reads; it never appends to the ledger it inspects.
package main

import (
	"fmt"
	"os"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fpstat trend [-ledger file] [-k 3.5] [-floor 0.10]
  fpstat diff old.out new.out`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "trend":
		os.Exit(trendMain(os.Args[2:]))
	case "diff":
		os.Exit(diffMain(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "fpstat: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}
