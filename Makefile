# Standard entry points for the repro repository. Everything uses the Go
# toolchain only — no external dependencies.

GO ?= go

.PHONY: build test race vet lint escape-gate fuzz-smoke fmt-check bench bench-smoke bench-serve bench-load load-smoke serve-smoke serve-chaos chaos chaos-short chaos-crash dist-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler, executor, server, distributed driver, load harness and
# tracer are the concurrency-touching packages; run them under the race
# detector (the remaining packages are sequential, and the full tree under
# -race is slow on small machines without adding coverage).
race:
	$(GO) test -race -timeout 20m ./internal/amt ./internal/core ./internal/serve ./internal/dist ./internal/trace ./internal/load

vet:
	$(GO) vet ./...

# Project-specific concurrency & determinism checkers (see DESIGN.md,
# "Invariant catalog"). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/dashmm-lint ./...

# Compiler-backed //dashmm:noalloc verification: every annotated function
# must be free of `go build -gcflags=-m` heap escapes (ground truth for the
# syntactic hotpath-noalloc fast path).
escape-gate:
	$(GO) run ./cmd/dashmm-lint -escape ./...

# Native-fuzz every decode surface for 20s each: the wire frame codec, the
# control-plane job spec, and the persistent plan-store record. The seed
# corpora live in testdata/fuzz/ and replay under plain `go test` too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 20s ./internal/amt
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime 20s ./internal/serve

# Fail if any file needs gofmt; prints the offending files.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Hot-path benchmark suite (deque, M2L cache, end-to-end evaluation);
# writes BENCH_hotpath.json next to the raw output.
bench:
	scripts/bench.sh

# One-iteration pass over the batched-execution benchmarks: compiles and
# exercises the multi-RHS M2L and the batched/per-edge hot-path variants
# end to end without the full bench.sh measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkM2LBatchedVsSingle|BenchmarkEvaluateHotPathBatched' -benchtime 1x -timeout 30m .

# Evaluation-service smoke test: concurrent mixed requests against an
# in-process server (httptest), asserting every response is a 200 and the
# cache/coalescing/queue metrics add up, plus a goroutine-leak check.
serve-smoke:
	$(GO) test ./internal/serve -run TestServeSmoke -v -count=1 -timeout 5m

# Self-healing serve gate: a daemon with a forked worker-rank pool serves
# concurrent distributed requests while one worker is SIGKILLed mid-load.
# Every request must match the sequential reference at 1e-12 or fail closed
# as a degraded 503; afterwards the supervisor must respawn and re-admit the
# worker (generation bump in /metrics) and distributed service must resume.
serve-chaos:
	$(GO) test ./internal/serve -run TestServeChaos -v -count=1 -timeout 10m

# Warm-vs-cold serving benchmark (plan cache + pooled runtime against
# per-request setup); writes BENCH_serve.json.
bench-serve:
	scripts/bench.sh serve

# Production load harness: a live dashmm-serve (persistent plan store in a
# scratch dir) driven through scripted cold/warm/mixed phases with open-loop
# Poisson arrivals and Zipf-skewed tenant keys; writes BENCH_load.json with
# per-phase p50/p99/p999 and shed/deadline/coalesce/degraded rates.
bench-load:
	scripts/bench.sh load

# Short harness run against a live server: asserts the emitted
# BENCH_load.json is well-formed and that warm traffic actually hit the
# plan cache (nonzero warm hits), exiting non-zero otherwise.
load-smoke:
	LOAD_PHASES="cold:2s:5,warm:4s:20" scripts/bench.sh load

# Chaos harness: full cube/sphere x Laplace/Yukawa evaluations over a
# fault-injected parcel wire (drop/duplicate/reorder/slow-rank), gated at
# 1e-12 against the fault-free potentials. chaos-short keeps only the
# combined acceptance profile (still all four workloads).
chaos:
	$(GO) test ./internal/amt -run TestChaosProfiles -v -count=1 -timeout 15m

chaos-short:
	$(GO) test ./internal/amt -run TestChaosProfiles -short -count=1 -timeout 10m

# Crash-recovery chaos harness on the multi-process path (core.DistRun over
# in-process unix-socket clusters): kill one of four ranks at 25/50/75% of
# its local progress (plus a lossy-wire case under the 50% kill) on every
# workload, gated at 1e-12 against the fault-free potentials. The full
# matrix is cheap enough to run in ci; the race job picks the crash tests
# up via ./internal/amt ./internal/core with the shrunk -short shapes.
chaos-crash:
	$(GO) test ./internal/amt -run TestChaosCrash -v -count=1 -timeout 15m

# Multi-process smoke: four real OS processes joined over unix sockets, one
# worker rank SIGKILLed at 50% of its local progress; the driver gates the
# gathered potentials at 1e-12 against the sequential evaluation and exits
# non-zero on any mismatch, wedge, or unexpected child failure.
dist-smoke: build
	$(GO) run ./cmd/dashmm-bench -real -n 20000 -locs 4 -net unix -kill-rank 2 -kill-at 0.5

ci: build vet fmt-check lint escape-gate test fuzz-smoke race serve-smoke serve-chaos chaos-short chaos-crash dist-smoke bench-smoke load-smoke
