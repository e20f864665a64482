# Development entry points. `make check` is the full verification gate
# (build + vet + race-enabled tests); CI and pre-commit should run it.

GO ?= go

.PHONY: check build test bench bench-mem bench-pipeline telemetry-smoke trace-smoke io-smoke query-smoke slo-smoke stat-smoke bench-gate profile

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

# End-to-end pipeline timing; writes BENCH_pipeline.json.
bench-pipeline:
	$(GO) run ./cmd/fpbench -o BENCH_pipeline.json

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

# End-to-end check of the latency observatory: runs fpbench (n=199)
# with -telemetry, scrapes /metrics while it runs, validates the
# Prometheus exposition (parser check: cumulative buckets, +Inf,
# _sum/_count), and asserts the report carries ordered per-stage
# quantile tables. CHECK_SLO_SMOKE=1 make check runs this as part of
# the full gate.
slo-smoke:
	$(GO) run scripts/slo_smoke.go

# End-to-end check of the perf forensics observatory: real fpgen and
# fpbench runs append run-ledger records, a seeded 20% grade-stage
# slowdown must be attributed to run/grade by `fpstat diff`, the red
# `fpbench compare` gate must leave CPU+heap profiles plus a markdown
# forensics report on disk, and `fpstat trend` must render drift over
# a history and ledger that both end in a truncated line.
# CHECK_STAT_SMOKE=1 make check runs this as part of the full gate.
stat-smoke:
	$(GO) run scripts/stat_smoke.go

# Perf-regression gate: re-times the pipeline at the small/medium
# cohort sizes and compares against the committed BENCH_pipeline.json
# with fpbench compare (default noise bands; appends the fresh run to
# BENCH_history.jsonl). Exits nonzero if throughput, allocations, or GC
# pauses regressed beyond the bands. CHECK_BENCH_GATE=1 make check runs
# this as part of the full gate. Note: compare flags come before the
# positional report paths.
bench-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/fpbench ./cmd/fpbench && \
	$$tmp/fpbench -n 199,10000 -reps 2 -o $$tmp/new.json && \
	$$tmp/fpbench compare -history BENCH_history.jsonl BENCH_pipeline.json $$tmp/new.json

# One-command profiling session: times the n=1M pipeline once with the
# full observability stack and drops every artifact under profiles/ —
# a CPU profile and heap profile (go tool pprof), plus a Chrome
# trace-event file (load in https://ui.perfetto.dev or chrome://tracing;
# see README "Tracing the pipeline"). -io=false keeps the run focused
# on the generation+grading hot path.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/fpbench -n 1000000 -workers 1,0 -reps 1 -io=false \
		-o profiles/BENCH_profile.json \
		-trace profiles/pipeline.trace.json \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof
	@echo "profile artifacts in profiles/: inspect with"
	@echo "  go tool pprof -top profiles/cpu.pprof"
	@echo "  go tool pprof -top profiles/heap.pprof"
	@echo "  perfetto/chrome://tracing <- profiles/pipeline.trace.json"
