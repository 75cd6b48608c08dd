GO ?= go

.PHONY: build test vet race perfbench-test bench-parallel bench-smoke bench-json bench-compare loadsmoke lint vulncheck check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full suite under the race detector, including the concurrent
# predict-vs-retrain stress test in internal/provider.
race:
	$(GO) test -race ./...

# Builds the benchmark harness (perfbench/, a module of its own that the
# root ./... does not reach) and runs its self-tests, so a storage or
# provider API change that breaks the benchmark's build fails here. -short
# skips the smoke run of every workload.
perfbench-test:
	$(GO) -C perfbench test -short ./...

# One pass of the parallel PREDICTION JOIN benchmark (workers=1/2/4/8),
# reporting rows/sec. Numbers are recorded in EXPERIMENTS.md.
bench-parallel:
	$(GO) test -run '^$$' -bench BenchmarkPredictionJoinParallel -benchtime=1x .

# Instrumentation-overhead guard: fails when enabling the obs registry slows
# the PREDICTION JOIN scan by more than 10% over WithObsRegistry(nil). The
# instrumented side runs with the flight recorder considering every statement
# and the metrics-history ticker snapshotting, so the 10% budget prices in
# the whole recorder+history pipeline.
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run TestObsOverheadSmoke -v .

# Machine-readable benchmark report (schema documented in EXPERIMENTS.md).
# Overwrites BENCH_PR10.json with a single fresh run; the checked-in report
# is a per-workload best-of-N composite (see EXPERIMENTS.md "PR10"), so only
# commit a regeneration deliberately.
bench-json:
	$(GO) run ./cmd/dmbench -scale 500 -json BENCH_PR10.json

# Regression gate: diff the recorded reports. Fails on a >10% rows/sec drop
# in any workload (tools/benchcompare). Both baselines were measured on the
# same host in interleaved runs (EXPERIMENTS.md "PR10"); deliberately NOT a
# dependency of bench-json — a single fresh run on a noisy shared host would
# flap the gate, so re-measure with bench-json only when conditions allow.
bench-compare:
	$(GO) run ./tools/benchcompare -base BENCH_PR9.json -new BENCH_PR10.json -max-regression 10

# Concurrency smoke: five seconds of mixed dmload traffic (8 reader
# connections + a training loop) against an in-process dmserver. Fails on
# any statement error or zero throughput. -slo surfaces over-budget
# statements with their wire-correlated seq; -check-recorder then asserts
# $SYSTEM.DM_FLIGHT_RECORDER is non-empty and joins DM_QUERY_LOG on SEQ.
# No latency-ratio gate here: CI hosts are too small for stable
# tail-latency comparisons (the ratio is measured and recorded in
# EXPERIMENTS.md instead).
loadsmoke:
	$(GO) run ./cmd/dmload -conns 8 -duration 5s -scale 200 -slo 250ms -check-recorder

# Project-specific static analysis (tools/dmlint) plus formatting and vet.
# dmlint type-checks the module with the stdlib toolchain and enforces the
# invariants documented in DESIGN.md § Static analysis.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:" $$unformatted; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./tools/dmlint ./...

# Known-vulnerability scan. Gated on the binary being present: the scan
# needs network access for the vuln DB, so offline/sandboxed builds skip it
# rather than fail.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

check: lint vulncheck race perfbench-test bench-parallel
