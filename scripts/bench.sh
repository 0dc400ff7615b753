#!/bin/sh
# Runs the hot-path benchmark suite (lock-free deque, cached M→L
# operators, batched multi-RHS M→L, zero-allocation evaluation — the
# 'BenchmarkEvaluateHotPath' pattern matches the plain and Batched
# variants) and writes the results as
# machine-readable JSON to BENCH_hotpath.json in the repository root.
# A pre-existing BENCH_hotpath.json is kept as BENCH_hotpath.prev.json and
# a ns/op comparison is printed; a missing prior file is fine — the
# comparison is simply skipped.
#
# Usage: scripts/bench.sh [extra go test args...]
#        scripts/bench.sh serve   # warm-vs-cold serving benchmark -> BENCH_serve.json
#        scripts/bench.sh load    # production load harness -> BENCH_load.json
set -eu

cd "$(dirname "$0")/.."

# Production load harness: start a real dashmm-serve (with a persistent plan
# store in a scratch directory), drive it with dashmm-load's scripted
# cold/warm/mixed phases, and verify the emitted BENCH_load.json — including
# that warm traffic actually hit the plan cache. Every failure is loud: a
# server that will not start, a harness error, or malformed/hollow JSON all
# exit non-zero without writing a final BENCH_load.json.
# Override the phase script with LOAD_PHASES, the listen address with
# LOAD_ADDR; extra args go to dashmm-load.
if [ "${1:-}" = "load" ]; then
    shift
    addr="${LOAD_ADDR:-127.0.0.1:18075}"
    phases="${LOAD_PHASES:-cold:3s:8,warm:6s:25,mixed:4s:20}"
    bin=$(mktemp -d)
    store=$(mktemp -d)
    srv=""
    cleanup() {
        [ -n "$srv" ] && kill "$srv" 2>/dev/null || true
        [ -n "$srv" ] && wait "$srv" 2>/dev/null || true
        rm -rf "$bin" "$store"
    }
    trap cleanup EXIT
    go build -o "$bin" ./cmd/dashmm-serve ./cmd/dashmm-load

    "$bin/dashmm-serve" -addr "$addr" -store "$store" \
        -max-queue 256 -max-concurrent 4 -cache-size 64 &
    srv=$!

    # -wait polls /healthz, so server and harness start back to back; the
    # output goes to a temp file first so a failed run never leaves a
    # half-written BENCH_load.json behind.
    out=$(mktemp)
    if ! "$bin/dashmm-load" -url "http://$addr" -wait 15s \
        -n 2000 -tenants 4 -phases "$phases" -out "$out" "$@"; then
        rm -f "$out"
        echo "bench.sh: dashmm-load failed; not writing BENCH_load.json" >&2
        exit 1
    fi
    if ! "$bin/dashmm-load" -verify "$out" -require-warm-hits; then
        rm -f "$out"
        echo "bench.sh: BENCH_load.json failed verification" >&2
        exit 1
    fi
    mv "$out" BENCH_load.json
    echo "wrote BENCH_load.json"
    exit 0
fi

# run_bench go-test-args...: run `go test` echoing its output and appending
# it to $raw, failing the whole script when go test fails. The previous
# `go test ... | tee` form swallowed failures — a pipeline's exit status is
# the last command's (tee's), so a compile error or benchmark panic still
# produced a BENCH_*.json with partial (or no) data. POSIX sh has no
# pipefail, so capture to a file and test the status explicitly.
run_bench() {
    _out=$(mktemp)
    if ! go test "$@" >"$_out" 2>&1; then
        cat "$_out" >&2
        rm -f "$_out"
        echo "bench.sh: 'go test $*' failed; not writing benchmark JSON" >&2
        exit 1
    fi
    cat "$_out"
    cat "$_out" >>"$raw"
    rm -f "$_out"
}

# Serving throughput: cold requests (fresh plan + operators + runtime per
# request) against the warm steady state (plan cache + pooled runtime).
# The printed speedup is the number EXPERIMENTS.md quotes.
if [ "${1:-}" = "serve" ]; then
    shift
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run_bench ./internal/serve -run '^$' \
        -bench 'BenchmarkServe(Cold|Warm)' \
        -benchtime 3x -timeout 20m "$@"
    awk '
    BEGIN { print "["; first = 1 }
    /^Benchmark/ {
        name = $1; iters = $2
        if (!first) printf ",\n"
        first = 0
        printf "  {\"name\": \"%s\", \"iterations\": %s", name, iters
        for (i = 3; i < NF; i += 2) {
            unit = $(i + 1)
            gsub(/\//, "_per_", unit)
            gsub(/[^A-Za-z0-9_]/, "_", unit)
            printf ", \"%s\": %s", unit, $i
        }
        printf "}"
    }
    END { print "\n]" }
    ' "$raw" > BENCH_serve.json
    echo "wrote BENCH_serve.json"
    awk '
    match($0, /"name": "[^"]*"/) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        if (match($0, /"ns_per_op": [0-9.e+]*/))
            ns[name] = substr($0, RSTART + 13, RLENGTH - 13)
    }
    END {
        cold = ns["BenchmarkServeCold"]
        warm = ns["BenchmarkServeWarm"]
        if (cold + 0 > 0 && warm + 0 > 0)
            printf "warm-cache speedup: cold %s -> warm %s ns/op (%.1fx)\n", cold, warm, cold / warm
    }
    ' BENCH_serve.json
    exit 0
fi

prev=""
if [ -f BENCH_hotpath.json ]; then
    prev=BENCH_hotpath.prev.json
    cp BENCH_hotpath.json "$prev"
else
    echo "no prior BENCH_hotpath.json — skipping comparison"
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

run_bench ./internal/amt -run '^$' \
    -bench 'BenchmarkDequePushPop|BenchmarkStealContention' \
    -benchmem "$@"
run_bench ./internal/kernel -run '^$' \
    -bench 'BenchmarkM2LCachedVsProjected' \
    -benchmem "$@"
run_bench . -run '^$' \
    -bench 'BenchmarkEvaluateHotPath|BenchmarkM2LBatchedVsSingle' \
    -benchtime 3x -timeout 40m "$@"

# Convert `go test -bench` lines into a JSON array: one object per
# benchmark with ns/op, allocations, and any custom ReportMetric columns.
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; iters = $2
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s", name, iters
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n]" }
' "$raw" > BENCH_hotpath.json

echo "wrote BENCH_hotpath.json"

# Batched-execution win on the dense-M2L method: the per-edge sub-benchmark
# of the Basic-method hot path against the batched default from the same
# run (tentpole acceptance: batched must be faster end to end).
awk '
match($0, /"name": "[^"]*"/) {
    name = substr($0, RSTART + 9, RLENGTH - 10)
    if (match($0, /"ns_per_op": [0-9.e+]*/))
        ns[name] = substr($0, RSTART + 13, RLENGTH - 13)
}
END {
    per = ns["BenchmarkEvaluateHotPathBatched/per-edge"]
    bat = ns["BenchmarkEvaluateHotPathBatched/batched"]
    if (per + 0 > 0 && bat + 0 > 0)
        printf "batched-execution end-to-end win: per-edge %s -> batched %s ns/op (%.2fx)\n", per, bat, per / bat
}
' BENCH_hotpath.json

# Compare ns/op against the prior run, when one exists.
if [ -n "$prev" ]; then
    echo "ns/op vs $prev:"
    awk '
    # Both files are one-object-per-line JSON arrays produced above; pull
    # out (name, ns_per_op) pairs without needing a JSON parser.
    match($0, /"name": "[^"]*"/) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        ns = ""
        if (match($0, /"ns_per_op": [0-9.e+]*/))
            ns = substr($0, RSTART + 13, RLENGTH - 13)
        if (ns == "") next
        if (NR == FNR) { old[name] = ns; next }
        if (name in old && old[name] + 0 > 0)
            printf "  %-60s %12s -> %12s  (%+.1f%%)\n", name, old[name], ns, (ns - old[name]) / old[name] * 100
        else
            printf "  %-60s %12s -> %12s  (new)\n", name, "-", ns
    }
    ' "$prev" BENCH_hotpath.json
fi
