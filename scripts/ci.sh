#!/usr/bin/env bash
# Tiered CI driver (.github/workflows/ci.yml runs both tiers; either runs
# standalone on a laptop).
#
#   scripts/ci.sh fast    blocking tier: build, gofmt, go vet, livenas-vet
#                         (baseline-gated via analysis/baseline.json,
#                         incremental: parallel -j with the facts cache in
#                         VET_CACHE, default ~/.cache/livenas-vet, so
#                         unchanged packages are never re-analyzed), short
#                         tests, parallel sweep smoke (one small figure
#                         sweep at -parallel 4)
#   scripts/ci.sh full    merge tier: go vet (stdlib asmdecl/copylocks — the
#                         asm stubs and purego twins are its territory),
#                         cold livenas-vet (no cache — proves
#                         findings independently of cache state), full
#                         tests, race tier (includes internal/sweep,
#                         internal/fleet and the parallel vet driver), fuzz
#                         smoke (FUZZTIME, default 10s, 0 skips), one
#                         cmd/bench-compare step per committed BENCH_*.json
#                         (kernel speedups, sweep, fleet and edge plans, vet
#                         engine cache; BENCH_NOISE overrides the 15%
#                         threshold), telemetry run-summary validation.
#                         scripts/check.sh runs this tier.
#
# Extended knobs (the nightly workflow uses these):
#   FLEET_SOAK_STREAMS=N  adds a fleet soak step to the full tier: N
#                         concurrent streamers through the admission plan
#                         and sweep execution under -race
#   CI_ARTIFACTS=dir      collects the step table, the telemetry run
#                         summary, pprof profiles and the cold analyzer
#                         stats (vet_stats.txt) into dir for upload
#
# Each step is timed; the table goes to stdout and, when running under
# GitHub Actions, to the job summary ($GITHUB_STEP_SUMMARY). When a step
# fails, the remaining steps are recorded as "skipped" and the script exits
# with the FIRST failing step's rc (a finish()/set -e interaction used to
# let a later step's rc, or a multi-command step's last rc, mask it).
set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-fast}"
case "$TIER" in fast | full) ;; *)
    echo "usage: scripts/ci.sh [fast|full]" >&2
    exit 2
    ;;
esac

if [[ -n "${CI_ARTIFACTS:-}" ]]; then
    mkdir -p "$CI_ARTIFACTS"
fi

STEP_NAMES=()
STEP_SECS=()
STEP_RCS=()
# First failure wins: step() records it here and turns every later step
# into an explicit "skipped" row instead of running it.
FAIL_RC=0
FAIL_STEP=""

finish() {
    local rc=$?
    # The table must report the first failing step's rc even if the shell
    # exited through a later command (or through the final exit 0 path).
    if [[ $FAIL_RC -ne 0 ]]; then rc=$FAIL_RC; fi
    {
        echo
        echo "### ci.sh $TIER tier"
        echo
        echo "| step | seconds | result |"
        echo "| --- | ---: | --- |"
        local i
        for i in "${!STEP_NAMES[@]}"; do
            echo "| ${STEP_NAMES[$i]} | ${STEP_SECS[$i]} | ${STEP_RCS[$i]} |"
        done
        if [[ $FAIL_RC -ne 0 ]]; then
            echo
            echo "first failure: ${FAIL_STEP} (rc=${FAIL_RC})"
        fi
    } | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}" |
        tee -a "${CI_ARTIFACTS:+$CI_ARTIFACTS/step_table.md}" 2>/dev/null ||
        true
    exit "$rc"
}
trap finish EXIT

# step NAME CMD...: runs CMD under timing. Never returns nonzero — set -e
# must not abort the driver mid-table — but records the first failure in
# FAIL_RC/FAIL_STEP and skips every subsequent step explicitly.
step() {
    local name="$1"
    shift
    if [[ $FAIL_RC -ne 0 ]]; then
        STEP_NAMES+=("$name")
        STEP_SECS+=("-")
        STEP_RCS+=("skipped")
        return 0
    fi
    echo "== $name"
    local t0 t1 rc=0
    t0=$(date +%s)
    "$@" || rc=$?
    t1=$(date +%s)
    STEP_NAMES+=("$name")
    STEP_SECS+=("$((t1 - t0))")
    if [[ $rc -eq 0 ]]; then
        STEP_RCS+=("ok")
    else
        STEP_RCS+=("FAIL($rc)")
        FAIL_RC=$rc
        FAIL_STEP="$name"
    fi
    return 0
}

gofmt_clean() {
    local out
    out="$(gofmt -l .)"
    if [[ -n "$out" ]]; then
        echo "gofmt: needs formatting:" >&2
        echo "$out" >&2
        return 1
    fi
}

# Multi-command steps chain with && so the step's rc is the first failing
# command's, not the last command's (bash suppresses set -e inside a
# function invoked in a tested context, so sequential statements would
# swallow an early failure).
summary_gate() {
    local f rc=0
    f="$(mktemp -t run_summary.XXXXXX.json)"
    # Reduced duration: the gate checks the summary pipeline end to end,
    # not experiment statistics.
    go run ./cmd/livenas-bench -summary "$f" -dur 40s -time=false &&
        go run ./cmd/bench-compare -summary "$f" || rc=$?
    if [[ -n "${CI_ARTIFACTS:-}" && -s "$f" ]]; then
        cp "$f" "$CI_ARTIFACTS/run_summary.json"
    fi
    rm -f "$f"
    return "$rc"
}

# Nightly-only: record the cold full-check-set analyzer statistics next to
# the pprof profiles, so an analyzer-cost regression caught by the vet gate
# comes with the target/analyzed/loaded counts that explain it. The -stats
# line goes to stderr; findings (none expected against the baseline) stay
# visible in the log and in the artifact.
vet_stats() {
    go run ./cmd/livenas-vet -stats -baseline analysis/baseline.json ./... \
        2>&1 | tee "$CI_ARTIFACTS/vet_stats.txt"
}

# Nightly-only: record cpu/heap profiles of the 1080p inference bench for
# upload, so a perf regression caught by the bench gate comes with the
# profile that explains it.
pprof_profiles() {
    go test -run '^$' -bench 'BenchmarkInference1080p$' -benchtime 5x \
        -cpuprofile "$CI_ARTIFACTS/cpu.pprof" \
        -memprofile "$CI_ARTIFACTS/mem.pprof" \
        -o "$CI_ARTIFACTS/sr_bench.test" ./internal/sr
}

if [[ "$TIER" == "fast" ]]; then
    step "go build" go build ./...
    step "gofmt" gofmt_clean
    step "go vet" go vet ./...
    step "livenas-vet (cached)" go run ./cmd/livenas-vet \
        -j "$(nproc)" -cache-dir "${VET_CACHE:-$HOME/.cache/livenas-vet}" -stats \
        -baseline analysis/baseline.json ./...
    step "go test -short" go test -short ./...
    # The int8 fast path's correctness contract, run by name so a test
    # rename or build-tag slip can't silently drop it from the blocking
    # tier: kernel-vs-scalar and int8-vs-f32 differentials plus the
    # byte-identical strip/cell determinism pins.
    step "int8 differential + determinism" go test \
        -run 'TestQuant|TestAnytime|TestRequant' ./internal/nn ./internal/sr
    # One real figure sweep through the concurrent engine: catches worker /
    # cache / ordering regressions the unit tests can't see end to end.
    step "sweep smoke" go run ./cmd/livenas-bench -fig fig23 -parallel 4 -dur 20s -traces 1
else
    FUZZTIME="${FUZZTIME:-10s}"
    step "go build" go build ./...
    step "go vet" go vet ./...
    step "livenas-vet (cold)" go run ./cmd/livenas-vet -baseline analysis/baseline.json ./...
    step "go test" go test ./...
    # internal/nn rides along for the int8/strip-parallel kernel stress;
    # internal/sr's stress set includes the quantized-path churn test;
    # internal/fleet races the registry against mid-epoch teardowns.
    # internal/edge races the origin/relay/viewer actors over both SimConn
    # and real-socket (net.Pipe + queued-writer) paths.
    step "go test -race" go test -race ./internal/telemetry ./internal/sr ./internal/nn ./internal/wire ./internal/transport ./internal/core ./internal/analysis ./internal/sweep ./internal/fleet ./internal/edge
    if [[ -n "${FLEET_SOAK_STREAMS:-}" ]]; then
        step "fleet soak (N=$FLEET_SOAK_STREAMS, -race)" go test -race \
            -run '^TestFleetSoak$' -v ./internal/fleet
    fi
    if [[ -n "${EDGE_SOAK_VIEWERS:-}" ]]; then
        step "edge soak (N=$EDGE_SOAK_VIEWERS, -race)" go test -race \
            -run '^TestEdgeSoak$' -v ./internal/edge
    fi
    if [[ "$FUZZTIME" != "0" ]]; then
        step "fuzz wire ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzWireRead$' -fuzztime "$FUZZTIME" ./internal/wire
        step "fuzz codec ($FUZZTIME)" go test -run '^$' -fuzz '^FuzzBitReader$' -fuzztime "$FUZZTIME" ./internal/codec
    fi
    for rec in BENCH_*.json; do
        step "bench gate $rec" go run ./cmd/bench-compare "$rec"
    done
    step "summary gate" summary_gate
    if [[ -n "${CI_ARTIFACTS:-}" ]]; then
        step "vet stats" vet_stats
        step "pprof profiles" pprof_profiles
    fi
fi

if [[ $FAIL_RC -ne 0 ]]; then
    echo "== ci.sh $TIER tier FAILED at: $FAIL_STEP (rc=$FAIL_RC)" >&2
    exit "$FAIL_RC"
fi
echo "== ci.sh $TIER tier passed"
