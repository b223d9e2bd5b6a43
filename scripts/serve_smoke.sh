#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the HTTP inference service: start
# nora-serve on a random port against the committed zoo, wait for /healthz,
# issue a /v1/predict, check generation determinism (including a long and
# a short prompt decoded concurrently under chunked prefill, and a predict
# sharing steps with a long prefill), check /statz, then SIGINT and require
# a clean drain. CI runs this; it is also the quickest way to sanity-check
# serving locally.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT=$(( (RANDOM % 20000) + 20000 ))
ADDR="127.0.0.1:${PORT}"
LOG="$(mktemp)"
trap 'kill "${SERVE_PID}" 2>/dev/null || true; rm -f "${LOG}"' EXIT

go build -o /tmp/nora-serve-smoke ./cmd/nora-serve
# -prefill-chunk 4 forces the long prompt below to prefill across several
# mixed steps, exercising the chunked path rather than a single pass.
/tmp/nora-serve-smoke -addr "${ADDR}" -models opt-c1 -prefill-chunk 4 >"${LOG}" 2>&1 &
SERVE_PID=$!

# Wait for the server to come up (zoo load + listener bind).
for i in $(seq 1 100); do
    if curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "${SERVE_PID}" 2>/dev/null; then
        echo "serve_smoke: server died during startup:" >&2
        cat "${LOG}" >&2
        exit 1
    fi
    sleep 0.2
done

health=$(curl -sf "http://${ADDR}/healthz")
echo "healthz: ${health}"
echo "${health}" | grep -q '"status":"ok"'
echo "${health}" | grep -q 'opt-c1'

predict=$(curl -sf -X POST "http://${ADDR}/v1/predict" \
    -d '{"model":"opt-c1","mode":"nora","context":[1,2,3,4,5]}')
echo "predict: ${predict}"
echo "${predict}" | grep -q '"token":'

# Determinism across requests: same context, same answer.
predict2=$(curl -sf -X POST "http://${ADDR}/v1/predict" \
    -d '{"model":"opt-c1","mode":"nora","context":[1,2,3,4,5]}')
tok1=$(echo "${predict}" | sed 's/.*"token":\([0-9]*\).*/\1/')
tok2=$(echo "${predict2}" | sed 's/.*"token":\([0-9]*\).*/\1/')
if [ "${tok1}" != "${tok2}" ]; then
    echo "serve_smoke: nondeterministic predict: ${tok1} vs ${tok2}" >&2
    exit 1
fi

# Bad requests surface as client errors, not 5xx.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR}/v1/predict" -d '{"model":')
[ "${code}" = "400" ] || { echo "serve_smoke: malformed JSON gave ${code}, want 400" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR}/v1/predict" \
    -d '{"model":"nope","context":[1]}')
[ "${code}" = "404" ] || { echo "serve_smoke: unknown model gave ${code}, want 404" >&2; exit 1; }

# Streamed generation: a short greedy completion must yield NDJSON token
# events, a final done event, and non-empty token output.
gen=$(curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":[1,2,3],"max_tokens":4}')
echo "generate:"
echo "${gen}"
echo "${gen}" | grep -q '"token":'
echo "${gen}" | grep -q '"done":true'
echo "${gen}" | grep -q '"finish_reason":"length"'
lines=$(echo "${gen}" | grep -c '"token":')
[ "${lines}" -ge 4 ] || { echo "serve_smoke: generate streamed ${lines} tokens, want 4" >&2; exit 1; }

# Generation determinism: same prompt, same greedy tokens (the final event
# carries wall-clock total_ms, so compare the token sequences only).
gen2=$(curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":[1,2,3],"max_tokens":4}')
toks1=$(echo "${gen}" | grep -o '"token":[0-9]*' | tr '\n' ' ')
toks2=$(echo "${gen2}" | grep -o '"token":[0-9]*' | tr '\n' ' ')
if [ "${toks1}" != "${toks2}" ]; then
    echo "serve_smoke: nondeterministic generation: ${toks1} vs ${toks2}" >&2
    exit 1
fi

# Chunked-prefill determinism under concurrency: a long prompt (several
# -prefill-chunk 4 chunks) and a short one decoded at the same time must
# each produce the exact tokens they produce alone — batch composition and
# chunk boundaries must not leak into any sequence's noise stream.
LONG='[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24]'
SHORT='[5,6,7]'
long_alone=$(curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":'"${LONG}"',"max_tokens":6}')
short_alone=$(curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":'"${SHORT}"',"max_tokens":6}')
long_out="$(mktemp)"; short_out="$(mktemp)"
curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":'"${LONG}"',"max_tokens":6}' >"${long_out}" &
LONG_PID=$!
curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":'"${SHORT}"',"max_tokens":6}' >"${short_out}" &
SHORT_PID=$!
wait "${LONG_PID}" "${SHORT_PID}"
long_toks_alone=$(echo "${long_alone}" | grep -o '"token":[0-9]*' | tr '\n' ' ')
short_toks_alone=$(echo "${short_alone}" | grep -o '"token":[0-9]*' | tr '\n' ' ')
long_toks_conc=$(grep -o '"token":[0-9]*' "${long_out}" | tr '\n' ' ')
short_toks_conc=$(grep -o '"token":[0-9]*' "${short_out}" | tr '\n' ' ')
rm -f "${long_out}" "${short_out}"
if [ "${long_toks_alone}" != "${long_toks_conc}" ]; then
    echo "serve_smoke: long prompt drifted under concurrency: '${long_toks_alone}' vs '${long_toks_conc}'" >&2
    exit 1
fi
if [ "${short_toks_alone}" != "${short_toks_conc}" ]; then
    echo "serve_smoke: short prompt drifted under concurrency: '${short_toks_alone}' vs '${short_toks_conc}'" >&2
    exit 1
fi
echo "concurrent long+short generation: deterministic"

# Predict and generate share one scheduler: predicts sent while the long
# prompt prefills in -prefill-chunk 4 steps ride those steps and must
# return the token they return alone.
CTX='[9,8,7,6,5]'
pred_alone=$(curl -sf -X POST "http://${ADDR}/v1/predict" \
    -d '{"model":"opt-c1","mode":"nora","context":'"${CTX}"'}')
tok_alone=$(echo "${pred_alone}" | sed 's/.*"token":\([0-9]*\).*/\1/')
long_out="$(mktemp)"
curl -sfN -X POST "http://${ADDR}/v1/generate" \
    -d '{"model":"opt-c1","mode":"nora","prompt":'"${LONG}"',"max_tokens":6}' >"${long_out}" &
LONG_PID=$!
for i in 1 2 3 4 5; do
    pred_conc=$(curl -sf -X POST "http://${ADDR}/v1/predict" \
        -d '{"model":"opt-c1","mode":"nora","context":'"${CTX}"'}')
    tok_conc=$(echo "${pred_conc}" | sed 's/.*"token":\([0-9]*\).*/\1/')
    if [ "${tok_alone}" != "${tok_conc}" ]; then
        echo "serve_smoke: predict drifted beside a prefilling prompt: ${tok_alone} vs ${tok_conc} (${pred_conc})" >&2
        exit 1
    fi
done
wait "${LONG_PID}"
long_toks_pred=$(grep -o '"token":[0-9]*' "${long_out}" | tr '\n' ' ')
rm -f "${long_out}"
if [ "${long_toks_alone}" != "${long_toks_pred}" ]; then
    echo "serve_smoke: long prompt drifted beside a predict: '${long_toks_alone}' vs '${long_toks_pred}'" >&2
    exit 1
fi
echo "predict beside a chunked prefill: deterministic (${pred_conc})"

statz=$(curl -sf "http://${ADDR}/statz")
echo "${statz}" | grep -q '"predict":{"requests":[1-9]'
echo "${statz}" | grep -q '"gen"'
echo "${statz}" | grep -q '"prefill_tokens"'
echo "${statz}" | grep -q '"kv_pages"'

# Clean shutdown: SIGINT must drain and exit 0.
kill -INT "${SERVE_PID}"
for i in $(seq 1 100); do
    kill -0 "${SERVE_PID}" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "${SERVE_PID}" 2>/dev/null; then
    echo "serve_smoke: server did not exit after SIGINT" >&2
    exit 1
fi
wait "${SERVE_PID}" || { echo "serve_smoke: server exited non-zero" >&2; cat "${LOG}" >&2; exit 1; }
grep -q "drained" "${LOG}" || { echo "serve_smoke: no drain marker in log" >&2; cat "${LOG}" >&2; exit 1; }
echo "serve_smoke: OK"
