#!/usr/bin/env bash
# Serve smoke: boot the release dynex-serve on an ephemeral port, round-trip
# a simulation over raw /dev/tcp (no curl dependency), check the repeat is a
# cache hit, drain gracefully, and require the process to actually exit —
# a leaked handler or dispatcher thread would wedge the drain join and trip
# the exit timeout. A does-it-serve gate, not a performance gate.
#
# Also exercises the PR 6 tracing surfaces: /metrics must report a non-empty
# simulate latency histogram and one key-memo hit, and the --trace-out span
# stream must contain the request and kernel stages and the first request's
# trace load. Set SMOKE_TRACE_OUT to keep the span JSONL (CI uploads it as
# an artifact); default is a temp file.
#
# Boot/HTTP plumbing lives in smoke_lib.sh (shared with load_smoke.sh);
# boot_serve fails fast if the server process dies before it listens.
#
#   scripts/serve_smoke.sh [path-to-dynex-serve]
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/smoke_lib.sh
. scripts/smoke_lib.sh

bin="${1:-target/release/dynex-serve}"
[ -x "$bin" ] || { echo "serve smoke: $bin not built" >&2; exit 1; }

log=$(mktemp)
trace_out="${SMOKE_TRACE_OUT:-$(mktemp)}"
cleanup() {
    rm -f "$log"
    [ -z "${SMOKE_TRACE_OUT:-}" ] && rm -f "$trace_out"
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

boot_serve "$bin" "$log" --port 0 --trace-out "$trace_out" \
    || { echo "serve smoke: boot failed" >&2; exit 1; }

request='{"org":"de","size":"8K","line":4,"trace":{"source":"profile","profile":"espresso"},"refs":100000}'

first=$(roundtrip POST /simulate "$request")
echo "$first" | grep -q '"cached":false' \
    || { echo "serve smoke: first response not a fresh simulation: $first" >&2; exit 1; }

second=$(roundtrip POST /simulate "$request")
echo "$second" | grep -q '"cached":true' \
    || { echo "serve smoke: repeat was not a cache hit: $second" >&2; exit 1; }

metrics=$(roundtrip GET /metrics "")
echo "$metrics" | grep -q '"sims-executed":1' \
    || { echo "serve smoke: expected exactly one simulation: $metrics" >&2; exit 1; }
# The repeat of a profile request resolves its content key from the key
# memo, without loading its trace again.
echo "$metrics" | grep -q '"key-memo-hits":1' \
    || { echo "serve smoke: repeat was not answered from the key memo: $metrics" >&2; exit 1; }
# The handler pool's refusal counter is registered at boot; two requests
# against a fresh server refuse none.
echo "$metrics" | grep -q '"rejected-connections":0' \
    || { echo "serve smoke: /metrics lacks rejected-connections at 0: $metrics" >&2; exit 1; }
# PR 6: per-stage latency histograms and percentile summaries. The simulate
# stage must have recorded at least one sample by now.
echo "$metrics" | grep -q '"latency-us/simulate"' \
    || { echo "serve smoke: /metrics has no simulate latency histogram: $metrics" >&2; exit 1; }
echo "$metrics" | grep -q '"latency_summary"' \
    || { echo "serve smoke: /metrics has no latency_summary block: $metrics" >&2; exit 1; }
echo "$metrics" | sed -n 's/.*"latency_summary":{\(.*\)/\1/p' | grep -q '"simulate":{"count":[1-9]' \
    || { echo "serve smoke: latency_summary has no simulate samples: $metrics" >&2; exit 1; }
# Every routed response must echo its trace id.
header_check=$(roundtrip GET /healthz "")
echo "$header_check" | grep -qi 'X-Dynex-Trace: [0-9a-f]\{16\}' \
    || { echo "serve smoke: response is missing the X-Dynex-Trace header" >&2; exit 1; }

drain=$(roundtrip POST /shutdown "")
echo "$drain" | grep -q '"status":"draining"' \
    || { echo "serve smoke: shutdown did not drain: $drain" >&2; exit 1; }

# Graceful exit within 10s; a leaked thread would hang the drain join.
await_exit "$serve_pid" 10 \
    || { echo "serve smoke: server did not exit after drain" >&2; exit 1; }
serve_pid=""

# The span stream must contain the request root and reach the kernel.
[ -s "$trace_out" ] || { echo "serve smoke: --trace-out wrote no spans" >&2; exit 1; }
grep -q '"stage":"request"' "$trace_out" \
    || { echo "serve smoke: span stream has no request spans" >&2; exit 1; }
grep -q '"stage":"kernel.simulate"' "$trace_out" \
    || { echo "serve smoke: span stream has no kernel.simulate spans" >&2; exit 1; }
# The first request loaded its trace under parse.
grep -q '"stage":"load"' "$trace_out" \
    || { echo "serve smoke: span stream has no load spans" >&2; exit 1; }

echo "serve smoke: OK"
