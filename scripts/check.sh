#!/bin/sh
# check.sh — the repo's full verification gate: build, vet, gofmt, and
# the complete test suite under the race detector. Run from the repo root
# (or let the cd below handle it).
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go vet, big-endian and arm64 (query, quiz, colstore)"
# The query kernels read eight codes per little-endian word load, and
# the codec frames everything little-endian, so the packages must
# build and vet on a big-endian target (s390x) and on arm64 as they do
# here. This is compile-only: no emulator is installed, so nothing runs
# on those targets.
GOARCH=s390x go vet ./internal/query ./internal/quiz ./internal/colstore
GOARCH=arm64 go vet ./internal/query ./internal/quiz ./internal/colstore

echo "==> gofmt -l (tracked .go files)"
# The file list is taken first so that a failing or empty `git ls-files`
# (say, outside a git checkout) fails the gate instead of passing it.
gofiles=$(git ls-files '*.go')
if [ -z "$gofiles" ]; then
	echo "gofmt: git ls-files listed no tracked .go files" >&2
	exit 1
fi
# Tracked Go file names contain no whitespace, so word splitting is safe.
# shellcheck disable=SC2086
unformatted=$(gofmt -l $gofiles)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> internal packages imported by a command or the facade"
# An internal package that no command under cmd/ and not the root
# facade imports is reached only by its own tests. The lists are taken
# first so that a failing `go list` fails the gate instead of passing it.
internal_pkgs=$(go list ./internal/...)
reached_pkgs=$(go list -deps ./cmd/... .)
if [ -z "$internal_pkgs" ] || [ -z "$reached_pkgs" ]; then
	echo "orphans: go list listed no packages" >&2
	exit 1
fi
reached_file=$(mktemp)
printf '%s\n' "$reached_pkgs" | sort >"$reached_file"
orphans=$(printf '%s\n' "$internal_pkgs" | sort | comm -23 - "$reached_file")
rm -f "$reached_file"
if [ -n "$orphans" ]; then
	echo "orphans: no command and not the facade imports these packages:" >&2
	echo "$orphans" >&2
	exit 1
fi

echo "==> answer-key table regenerates unchanged"
# The quiz's answer key (internal/quiz/key_gen.go) is generated from the
# oracles in internal/oracle. Regenerating it must leave the checked-in
# table as it is; a failing generator fails the gate through set -e.
git ls-files --error-unmatch internal/quiz/key_gen.go >/dev/null
go generate ./internal/quiz
if ! git diff --exit-code -- internal/quiz/key_gen.go; then
	echo "answer key: go generate ./internal/quiz changed key_gen.go; commit the regenerated table" >&2
	exit 1
fi

echo "==> fpgen and fpreport link no oracle"
# The run path reads the answer-key table; the oracles, and the compiler
# model and expression packages they run, stay off it. The list is taken
# first so that a failing `go list` fails the gate instead of passing it.
run_deps=$(go list -deps ./cmd/fpgen ./cmd/fpreport)
if [ -z "$run_deps" ]; then
	echo "run-path deps: go list listed no packages" >&2
	exit 1
fi
linked=$(printf '%s\n' "$run_deps" | grep -x -e fpstudy/internal/oracle \
	-e fpstudy/internal/optsim -e fpstudy/internal/expr || true)
if [ -n "$linked" ]; then
	echo "run-path deps: fpgen or fpreport links these oracle packages:" >&2
	echo "$linked" >&2
	exit 1
fi

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

# Optional fuzzing gate: CHECK_FUZZ=1 runs every Fuzz* target for
# FUZZTIME (default 30s) under a ulimit -v memory cap set in make's
# recipe shell (make fuzz). Off by default — the suite above replays
# only the committed corpora; this stage searches for new inputs, so a
# pass means only that none was found in the time given.
if [ "${CHECK_FUZZ:-0}" = "1" ]; then
	echo "==> make fuzz"
	make fuzz
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
# -telemetry and -runlog, scrapes /metrics mid-run until the
# respondents counter and the stage histograms are live, validates the
# Prometheus exposition, and asserts the ledger record's stage rows
# under the names /metrics serves (make slo-smoke). Off by default — the same
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
