#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it.
#
# Run from the root of the repository:
#
#	bash perfbench/run.sh --workload retry-storm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the repository root:
# the Go build cache, temporary files and the binary go to .bench_build,
# the per-run records (host-noise record, counter digest, spans, CPU
# profile) to .bench_out. The last line of standard output is the result
# object; see perfbench/spec.json for what each workload and metric means.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: run from the repository root (the simulator sources are missing here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gomod"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
