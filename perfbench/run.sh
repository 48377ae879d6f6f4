#!/usr/bin/env bash
# Builds the served-engine benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload ingest|scan|mix --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
