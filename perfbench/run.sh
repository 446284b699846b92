#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload study-paper --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache and
# the run's scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
