#!/bin/sh
# Pre-PR gate: formatting, vet, and the full test suite under the race
# detector. Run via `make check` or directly. Fails fast on the first
# problem.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go test -race ./...

# Coverage gate: total statement coverage must stay within one point of
# the committed baseline (scripts/coverage_baseline.txt). Raise the
# baseline when coverage genuinely improves; never lower it to pass.
# -coverpkg counts cross-package coverage: core machinery is deliberately
# exercised through the root facade and internal/snap, and a statement
# covered by any test in the module is covered.
covprofile=$(mktemp)
trap 'rm -f "$covprofile"' EXIT
go test -coverprofile "$covprofile" -coverpkg ./... ./... > /dev/null
total=$(go tool cover -func="$covprofile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
baseline=$(cat scripts/coverage_baseline.txt)
echo "coverage: ${total}% (baseline ${baseline}%)"
if ! awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t + 0 >= b - 1.0) }'; then
    echo "coverage gate: total ${total}% fell more than 1 point below baseline ${baseline}%" >&2
    exit 1
fi

# Fuzz smoke: each target gets a short randomized budget on top of its
# checked-in seed corpus (go test -fuzz takes one target per invocation).
fuzztime="${FUZZTIME:-10s}"
go test -fuzz FuzzNoFalseNegatives -fuzztime "$fuzztime" -run xxx ./internal/sig
go test -fuzz FuzzCatapult -fuzztime "$fuzztime" -run xxx ./internal/obs
go test -fuzz FuzzFingerprint -fuzztime "$fuzztime" -run xxx .
go test -fuzz FuzzValidateDisassemble -fuzztime "$fuzztime" -run xxx ./internal/txvm
go test -fuzz FuzzSnapshotRoundTrip -fuzztime "$fuzztime" -run xxx ./internal/snap
go test -fuzz FuzzEngineOrder -fuzztime "$fuzztime" -run xxx ./internal/sim
go test -fuzz FuzzLaneOrder -fuzztime "$fuzztime" -run xxx ./internal/core
go test -fuzz FuzzStormMatchesPerRetry -fuzztime "$fuzztime" -run xxx ./internal/core
go test -fuzz FuzzReplayMatchesWalk -fuzztime "$fuzztime" -run xxx ./cmd/difftest

echo "check: OK"
