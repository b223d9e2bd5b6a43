#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload predict --seed 1 --seconds 45 --trace 0
#
# The binary, the Go build cache and traced runs' span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
# Keep every file the Go toolchain writes inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
