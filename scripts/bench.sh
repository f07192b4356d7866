#!/usr/bin/env bash
# Component benchmarks. Runs the Conv2D micro-benches (internal/nn) and
# the train-epoch / 1080p / 4K inference benches (internal/sr), each in its
# "kernel" (im2col/GEMM engine) and "ref" (retained scalar baseline)
# variant, and writes BENCH_kernels.json. The full run also re-records the
# sweep, fleet and edge plan records (cmd/livenas-bench -sweepbench,
# -fleetbench, -edgebench) and the vet-engine record (livenas-vet -bench).
# The records are committed so the trajectory is reviewable across commits,
# and cmd/bench-compare gates a fresh run against each (scripts/ci.sh full).
#
# Every BENCH_*.json has one shape (internal/benchrec): a schema number,
# the "regen" argv that re-measures the record into its "{out}" argument,
# and a list of entries, one per figure:
#   {"name", "metric", "value", "unit", "better": higher|lower,
#    "gate": ratio|cores|min|exact|none, "floor" (min only)}
# Here each bench yields a ratio-gated "speedup" (ref_ns / kernel_ns), an
# ungated "allocs_reduction" (ref_allocs / kernel_allocs; 999999 when the
# kernel variant allocates nothing per op) and the raw ns/op, MB/s, B/op
# and allocs/op of both variants. Both variants run in the same binary
# (SetRefKernels). For the int8 benches (inference_1080p_int8,
# inference_4k) "kernel" is the int8-quantized path and "ref" the f32 GEMM
# engine, so their speedup is the quantization win on top of the optimised
# path.
#
#   scripts/bench.sh            full run: rewrites all five BENCH_*.json
#   scripts/bench.sh -short     few-iteration kernel run (the gate's regen):
#                               writes to a temp file so the tracked
#                               baseline keeps full-run numbers
#   scripts/bench.sh -o FILE    write the kernel record elsewhere
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_kernels.json"
SHORT=0
while [[ $# -gt 0 ]]; do
    case "$1" in
    -short) SHORT=1 ;;
    -o)
        OUT="$2"
        shift
        ;;
    *)
        echo "usage: scripts/bench.sh [-short] [-o file]" >&2
        exit 2
        ;;
    esac
    shift
done

if [[ "$SHORT" == 1 && "$OUT" == "BENCH_kernels.json" ]]; then
    OUT="$(mktemp -t bench_kernels_short.XXXXXX.json)"
fi

if [[ "$SHORT" == 1 ]]; then
    # A handful of iterations, not one: the first iteration pays the arena
    # and pool cold start, which skews single-shot kernel-vs-ref ratios the
    # bench-regression gate (cmd/bench-compare) compares against the
    # full-run baseline.
    NN_ARGS=(-benchtime 5x)
    SR_ARGS=(-benchtime 5x)
else
    # Long enough for steady-state arena/pool behaviour to dominate.
    NN_ARGS=(-benchtime 2s)
    SR_ARGS=(-benchtime 15x)
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== bench: internal/nn conv kernels" >&2
go test -run '^$' -bench 'BenchmarkConvForward$|BenchmarkConvBackward$' \
    -benchmem "${NN_ARGS[@]}" ./internal/nn | tee -a "$TMP" >&2
echo "== bench: internal/sr train epoch + inference (1080p f32/int8, 4K)" >&2
go test -run '^$' -bench 'BenchmarkTrainEpoch$|BenchmarkInference1080p$|BenchmarkInference1080pInt8$|BenchmarkInference4K$' \
    -benchmem "${SR_ARGS[@]}" ./internal/sr | tee -a "$TMP" >&2

awk '
function entry(name, metric, value, unit, better, gate) {
    if (nent++) printf ",\n"
    printf "    {\"name\":\"%s\",\"metric\":\"%s\",\"value\":%s,\"unit\":\"%s\",\"better\":\"%s\",\"gate\":\"%s\"}", name, metric, value, unit, better, gate
}
function raw(name, v, k) {
    entry(name, v "_ns_op", NS[k], "ns/op", "lower", "none")
    entry(name, v "_mb_s", MBS[k] == "" ? "0" : MBS[k], "MB/s", "higher", "none")
    entry(name, v "_bytes_op", BY[k], "B/op", "lower", "none")
    entry(name, v "_allocs_op", AL[k], "allocs/op", "lower", "none")
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    sub(/^Benchmark/, "", name)
    split(name, parts, "/")
    bench = parts[1]; variant = parts[2]
    ns = ""; mbs = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "MB/s") mbs = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    key = bench "." variant
    NS[key] = ns; MBS[key] = mbs; AL[key] = allocs; BY[key] = bytes
    seen[bench] = 1
}
END {
    map["ConvForward"] = "conv_forward"
    map["ConvBackward"] = "conv_backward"
    map["TrainEpoch"] = "train_epoch"
    map["Inference1080p"] = "inference_1080p"
    map["Inference1080pInt8"] = "inference_1080p_int8"
    map["Inference4K"] = "inference_4k"
    order[1] = "ConvForward"; order[2] = "ConvBackward"
    order[3] = "TrainEpoch"; order[4] = "Inference1080p"
    order[5] = "Inference1080pInt8"; order[6] = "Inference4K"
    printf "{\n  \"schema\": 2,\n"
    printf "  \"regen\": [\"scripts/bench.sh\",\"-short\",\"-o\",\"{out}\"],\n"
    printf "  \"entries\": [\n"
    nout = 0
    for (oi = 1; oi <= 6; oi++) {
        b = order[oi]
        if (!(b in seen)) continue
        kk = b ".kernel"; rk = b ".ref"
        if (NS[kk] == "" || NS[rk] == "") continue
        nout++
        entry(map[b], "speedup", sprintf("%.2f", NS[rk] / NS[kk]), "x", "higher", "ratio")
        if (AL[kk] + 0 == 0) red = 999999
        else red = AL[rk] / AL[kk]
        entry(map[b], "allocs_reduction", sprintf("%.2f", red), "x", "higher", "none")
        raw(map[b], "kernel", kk)
        raw(map[b], "ref", rk)
    }
    printf "\n  ]\n}\n"
    if (nout != 6) {
        print "bench.sh: expected 6 benchmarks, parsed " nout > "/dev/stderr"
        exit 1
    }
}
' "$TMP" >"$OUT"

echo "== wrote $OUT" >&2
cat "$OUT"

if [[ "$SHORT" == 0 ]]; then
    echo "== bench: sweep engine serial vs parallel" >&2
    go run ./cmd/livenas-bench -sweepbench BENCH_sweep.json

    echo "== bench: fleet plan serial vs parallel" >&2
    go run ./cmd/livenas-bench -fleetbench BENCH_fleet.json

    echo "== bench: edge fan-out plan serial vs parallel" >&2
    go run ./cmd/livenas-bench -edgebench BENCH_edge.json

    echo "== bench: vet engine cold vs warm" >&2
    go run ./cmd/livenas-vet -bench BENCH_vet.json ./...
fi
