# Development entry points. `make check` is the full verification gate
# (build + vet + race-enabled tests); CI and pre-commit should run it.

GO ?= go

.PHONY: check build test bench bench-mem telemetry-smoke trace-smoke io-smoke query-smoke slo-smoke stat-smoke bench-gate profile

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Memory gate: fails if the per-respondent sampling, calibration, or
# grading inner loops allocate, if a telemetry probe call or trace emit
# allocates, or if the serial SumShards reduction allocates with the
# probe installed (the Test*ZeroAlloc tests assert the contracts via
# testing.AllocsPerRun), then prints the allocation profile of the
# per-stage hot-path benchmarks. CHECK_BENCH_MEM=1 make check runs
# this as part of the full gate.
bench-mem:
	$(GO) test -run 'ZeroAlloc' -v ./internal/respondent/ ./internal/quiz/ ./internal/telemetry/ ./internal/parallel/
	$(GO) test -run - -bench 'BenchmarkSampleBlock|BenchmarkScoreColumns|BenchmarkCalibrateModels|BenchmarkGenerateBlocks|BenchmarkAnalysisReports|BenchmarkBootstrapMeanCI' \
		-benchmem ./internal/respondent/ ./internal/quiz/ ./internal/core/ ./internal/stats/

# End-to-end check of the live-introspection surface: runs fpgen with
# -telemetry and asserts /debug/vars serves live fpstudy metrics.
telemetry-smoke:
	$(GO) run scripts/telemetry_smoke.go

# End-to-end check of the tracing surface: generates n=199 with -trace
# and validates the Chrome trace-event JSON (parses, contains all four
# pipeline stages and per-worker lanes).
trace-smoke:
	$(GO) run scripts/trace_smoke.go

# End-to-end check of the dataset file formats: fpgen writes an
# n=10000 cohort as FPDS binary and as row JSON, and `fpreport -data`
# off each file must reproduce the in-process report byte for byte.
# CHECK_IO_SMOKE=1 make check runs this as part of the full gate.
io-smoke:
	$(GO) run scripts/io_smoke.go

# End-to-end check of the ad-hoc query surface: fpgen writes an
# n=10000 cohort in both file formats, and the same expressions must
# print byte-identical tables through `fpreport -query` (in-process,
# loaded JSON, streamed .fpds) and `fpsurvey slice` (both formats).
# CHECK_QUERY_SMOKE=1 make check runs this as part of the full gate.
query-smoke:
	$(GO) run scripts/query_smoke.go

# End-to-end check of the latency observatory: runs fpgen (n=1M to
# .fpds) with -telemetry and -runlog, scrapes /metrics while it runs,
# validates the Prometheus exposition (parser check: cumulative
# buckets, +Inf, _sum/_count), and asserts the run-ledger record
# carries ordered per-stage quantile rows. CHECK_SLO_SMOKE=1 make
# check runs this as part of the full gate.
slo-smoke:
	$(GO) run scripts/slo_smoke.go

# End-to-end check of the run records: real fpgen and fpreport runs
# append well-formed run-ledger records (fpgen's with its dataset
# sha256), `fpstat trend` renders over a ledger ending in a truncated
# line and surfaces a nonzero exit, and `fpstat diff` passes identical
# perfbench outputs, fails a 30% wall_s regression and rejects a
# malformed line. CHECK_STAT_SMOKE=1 make check runs this as part of
# the full gate.
stat-smoke:
	$(GO) run scripts/stat_smoke.go

# Perf-regression gate: checks out HEAD into a temporary detached
# worktree, runs perfbench on HEAD and on the working tree for each
# workload, and judges each pair with `fpstat diff` against the
# end-to-end bounds in BENCHMARK.json. Exits nonzero if any metric got
# worse beyond its bound or a check failed. CHECK_BENCH_GATE=1 make
# check runs this as part of the full gate.
bench-gate:
	@tmp=$$(mktemp -d) && \
	trap 'git worktree remove --force "$$tmp/head" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --quiet --detach "$$tmp/head" HEAD && \
	$(GO) build -o $$tmp/fpstat ./cmd/fpstat && \
	for w in reproduce analyses query; do \
		(cd "$$tmp/head" && python3 perfbench/run.py --workload $$w --seed 1 --seconds 25) > $$tmp/head-$$w.out && \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 25 > $$tmp/tree-$$w.out && \
		echo "==> $$w: HEAD vs working tree" && \
		$$tmp/fpstat diff $$tmp/head-$$w.out $$tmp/tree-$$w.out || exit 1; \
	done

# One-command profiling session at n=1M: a CPU profile and a heap
# profile of the generate+grade pipeline (BenchmarkStudyPipeline, one
# iteration), plus a Chrome trace-event file of an fpgen run (load in
# https://ui.perfetto.dev or chrome://tracing; see README "Tracing the
# pipeline"). Every artifact lands under profiles/.
profile:
	mkdir -p profiles
	FPSTUDY_BENCH_LARGE=1 $(GO) test -run - -bench '^BenchmarkStudyPipeline$$/^n=1000000$$/^workers=0$$' -benchtime 1x \
		-o profiles/fpstudy.test -cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof .
	$(GO) run ./cmd/fpgen -n 1000000 -trace profiles/pipeline.trace.json -o profiles/pipeline.fpds
	rm -f profiles/pipeline.fpds
	@echo "profile artifacts in profiles/: inspect with"
	@echo "  go tool pprof -top profiles/cpu.pprof"
	@echo "  go tool pprof -top profiles/heap.pprof"
	@echo "  perfetto/chrome://tracing <- profiles/pipeline.trace.json"
