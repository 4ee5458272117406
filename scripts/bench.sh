#!/bin/sh
# Benchmark tracker: runs the guarded benchmark cells (the Figure-4
# benchmark x variant grid plus the engine and signature
# microbenchmarks) with -benchmem and writes a machine-readable JSON
# snapshot, so the performance trajectory is tracked revision over
# revision.
#
# Usage:
#   scripts/bench.sh                 # full pass -> BENCH_<rev>.json
#   scripts/bench.sh -short          # CI smoke: fewer iterations
#   scripts/bench.sh -out FILE       # explicit output path
#
# Compare two snapshots taken on the same host with:
#   go run ./cmd/benchdiff -base BENCH_<base>.json -new BENCH_<rev>.json
# ns/op depends on the host, so a snapshot only gates another one from
# the same machine: CI's bench-smoke job benchmarks the base revision
# beside the change, in the same job. BENCH_baseline.json is a full
# pass recorded on a development host, kept as a local reference.
set -eu
cd "$(dirname "$0")/.."

benchtime=10x
out=""
short=0
while [ $# -gt 0 ]; do
    case "$1" in
    -short) short=1; benchtime=1x ;;
    -out) out="$2"; shift ;;
    *) echo "usage: scripts/bench.sh [-short] [-out FILE]" >&2; exit 2 ;;
    esac
    shift
done

rev=$(git rev-parse --short HEAD 2>/dev/null || echo worktree)
if [ -z "$out" ]; then
    out="BENCH_${rev}.json"
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# The guarded cells: every Figure-4 benchmark x variant pair, plus the
# pure data-structure microbenchmarks for the event engine and the
# signature hardware. The microbenchmarks always run at a fixed high
# iteration count: their per-op times are nanoseconds, so a handful of
# iterations would make the regression gate fire on pure noise.
go test -run xxx -bench 'BenchmarkFigure4' \
    -benchtime "$benchtime" -benchmem . >>"$tmp"
# The end-to-end sweep cell under its three execution strategies
# (cold construction, pooled Reset, cache hit) — benchdiff reports the
# pooled/cold and cached/cold ratios from these cells.
go test -run xxx -bench 'BenchmarkSweepCell' \
    -benchtime "$benchtime" -benchmem . >>"$tmp"
# Snapshot engine: capture/restore cost on the Table-1 machine.
go test -run xxx -bench 'BenchmarkSnapshotRestore' \
    -benchtime "$benchtime" -benchmem . >>"$tmp"
go test -run xxx -bench 'BenchmarkSignatureOps' \
    -benchtime 10000x -benchmem . >>"$tmp"
# Signature microbenchmarks: the scalar Insert loop and the 32-filter
# MayContain broadcast per filter kind, in internal/sig.
go test -run xxx -bench 'BenchmarkInsert|BenchmarkMayContain' \
    -benchtime 10000x -benchmem ./internal/sig >>"$tmp"
go test -run xxx -bench 'BenchmarkEngine|BenchmarkMemory' \
    -benchtime 10000x -benchmem ./internal/sim ./internal/mem \
    >>"$tmp" 2>/dev/null || true

# Parse `go test -bench` lines into JSON:
#   BenchmarkFoo/Bar-8  3  123 ns/op  4.5 cycles/unit  67 B/op  8 allocs/op
awk -v rev="$rev" -v short="$short" '
BEGIN { printf "{\n  \"rev\": %c%s%c,\n  \"short\": %s,\n  \"benchmarks\": [\n", 34, rev, 34, (short ? "true" : "false") }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""; allocs = ""; bytes = ""; metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        v = $i; u = $(i + 1)
        if (u == "ns/op") ns = v
        else if (u == "allocs/op") allocs = v
        else if (u == "B/op") bytes = v
        else {
            if (metrics != "") metrics = metrics ", "
            metrics = metrics sprintf("%c%s%c: %s", 34, u, 34, v)
        }
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "    {%cname%c: %c%s%c, %cns_op%c: %s", 34, 34, 34, name, 34, 34, 34, ns
    if (allocs != "") printf ", %callocs_op%c: %s", 34, 34, allocs
    if (bytes != "") printf ", %cbytes_op%c: %s", 34, 34, bytes
    if (metrics != "") printf ", %cmetrics%c: {%s}", 34, 34, metrics
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$tmp" >"$out"

n=$(grep -c '"name"' "$out" || true)
echo "bench: wrote $n cells to $out"
