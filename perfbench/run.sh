#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload many-flows --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary result caches all stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
