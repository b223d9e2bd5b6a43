#!/usr/bin/env bash
# Runs the analog read-path and decode-throughput benchmark set (every
# benchmark matching MVM|Forward|Decode|Prefill) -count times and distills
# the medians into a checked-in JSON artifact via scripts/benchsummary. The
# Decode set records the continuous-batching acceptance numbers: aggregate
# tok/s of DecodeBatch8/DecodeBatch16 vs the sequential DecodeT1 baseline.
# The Prefill/DecodeMixed set records the chunked-prefill acceptance
# numbers: short-prompt p95 TTFT of DecodeMixedChunked64 vs
# DecodeMixedMonolithic at aggregate tok/s within 5%.
#
# Usage (OUT is required, so a run never overwrites a checked-in artifact
# by default):
#   OUT=/tmp/bench.json scripts/bench.sh          # 5 runs, 1s each
#   COUNT=3 BENCHTIME=2s OUT=/tmp/b.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${OUT:-}" ]; then
    echo "usage: OUT=<file.json> [COUNT=5] [BENCHTIME=1s] scripts/bench.sh" >&2
    exit 1
fi
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1s}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'MVM|Forward|Decode|Prefill' -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw"
go run ./scripts/benchsummary -out "$OUT" <"$raw"
echo "wrote $OUT"
