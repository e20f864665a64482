#!/bin/sh
# check.sh — the repo's full verification gate: build, vet, and the
# complete test suite under the race detector. Run from the repo root
# (or let the cd below handle it).
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

# Optional memory gate: CHECK_BENCH_MEM=1 also runs the zero-allocation
# tests and the allocation-reporting benchmarks of the sampling/grading
# hot loops (make bench-mem). Off by default — the same assertions run
# (race-enabled) in the suite above; this stage re-runs them without
# the race detector's allocator interference and prints allocs/op.
if [ "${CHECK_BENCH_MEM:-0}" = "1" ]; then
	echo "==> make bench-mem"
	make bench-mem
fi

# Optional I/O smoke gate: CHECK_IO_SMOKE=1 generates an n=10000
# cohort in both file formats with the real fpgen binary and requires
# `fpreport -data` off each file to reproduce the in-process report
# byte for byte (make io-smoke). Off by default — the same contract is
# pinned in-process at n=199 by the golden tests in the suite above;
# this stage additionally exercises the built binaries and real files.
if [ "${CHECK_IO_SMOKE:-0}" = "1" ]; then
	echo "==> make io-smoke"
	make io-smoke
fi

# Optional query smoke gate: CHECK_QUERY_SMOKE=1 generates an n=10000
# cohort in both file formats and requires the same query expressions
# to print byte-identical tables through every route: fpreport -query
# in-process, off loaded row JSON, streamed off the .fpds shard, and
# fpsurvey slice on both files (make query-smoke). Off by default —
# the engine's determinism and mem/stream parity are pinned in-process
# by the property and golden tests above; this stage additionally
# exercises the built binaries, the expression parser surface, and
# real files.
if [ "${CHECK_QUERY_SMOKE:-0}" = "1" ]; then
	echo "==> make query-smoke"
	make query-smoke
fi

# Optional SLO smoke gate: CHECK_SLO_SMOKE=1 runs an n=1M fpgen with
# -telemetry and -runlog, scrapes /metrics mid-run, validates the
# Prometheus exposition, and asserts the ledger record's per-stage
# latency quantiles (make slo-smoke). Off by default — the same
# exposition and quantile logic is unit-tested in internal/telemetry;
# this stage additionally exercises the real HTTP surface and the
# built binary.
if [ "${CHECK_SLO_SMOKE:-0}" = "1" ]; then
	echo "==> make slo-smoke"
	make slo-smoke
fi

# Optional run-records smoke gate: CHECK_STAT_SMOKE=1 drives the run
# ledger and fpstat end to end with real binaries: ledger records from
# fpgen and fpreport, fpstat trend over a truncated ledger, and fpstat
# diff passing, failing and rejecting inline perfbench outputs (make
# stat-smoke). Off by default — the drift statistics and the diff
# verdicts are unit-tested in cmd/fpstat; this stage additionally
# exercises the built binaries and real files.
if [ "${CHECK_STAT_SMOKE:-0}" = "1" ]; then
	echo "==> make stat-smoke"
	make stat-smoke
fi

# Optional perf-regression gate: CHECK_BENCH_GATE=1 runs perfbench on
# HEAD (in a temporary worktree) and on the working tree for each
# workload and judges each pair with fpstat diff against the
# end-to-end bounds in BENCHMARK.json (make bench-gate). Off by
# default — it takes a few minutes and only means something on a
# quiet machine.
if [ "${CHECK_BENCH_GATE:-0}" = "1" ]; then
	echo "==> make bench-gate"
	make bench-gate
fi

echo "==> all checks passed"
