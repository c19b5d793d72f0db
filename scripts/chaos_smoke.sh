#!/usr/bin/env bash
# Chaos smoke: boot the release dynex-serve as a 2-shard fleet with warm
# journals, drive 5 seconds of open-loop traffic through dynex-load, and
# SIGKILL shard 0's worker 2 seconds in. The gate is the self-healing
# story, machine-checked end to end:
#
#   * the report is a well-formed dynex-load/v1 document with a chaos block,
#   * the kill was delivered and the shard recovered (recovery_us recorded),
#   * the supervisor respawned the worker (respawns >= 1 at /healthz),
#   * zero divergences — every repeated request got byte-identical results
#     across the kill (modulo the cached flag; warm recovery is the point),
#   * zero survivor errors — the never-killed shard served flawlessly,
#   * no 500s, no 504s, no client-side transport errors (the router itself
#     must never drop a connection; mid-recovery requests for the dead
#     shard fail fast as router 503s, which are expected and allowed),
#   * both the chaos audit and the client/server cross-check come back
#     consistent (dynex-load exits non-zero otherwise),
#   * the fleet drains and every process exits after POST /shutdown.
#
# A does-the-fleet-heal gate, not a performance gate: recovery *time* is
# recorded in the artifact but never asserted — CI boxes are too noisy.
#
# Set CHAOS_SMOKE_OUT to keep the JSON report (CI uploads it as an
# artifact); default is a temp file.
#
#   scripts/chaos_smoke.sh [path-to-dynex-serve] [path-to-dynex-load]
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/smoke_lib.sh
. scripts/smoke_lib.sh

serve_bin="${1:-target/release/dynex-serve}"
load_bin="${2:-target/release/dynex-load}"
[ -x "$serve_bin" ] || { echo "chaos smoke: $serve_bin not built" >&2; exit 1; }
[ -x "$load_bin" ] || { echo "chaos smoke: $load_bin not built" >&2; exit 1; }

log=$(mktemp)
out="${CHAOS_SMOKE_OUT:-$(mktemp)}"
journal_dir=$(mktemp -d)
cleanup() {
    rm -f "$log"
    rm -rf "$journal_dir"
    [ -z "${CHAOS_SMOKE_OUT:-}" ] && rm -f "$out"
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

# Warm journals are what make the respawned worker answer with the exact
# bytes its predecessor served — without them this gate could not demand
# zero divergences.
boot_serve "$serve_bin" "$log" --port 0 --shards 2 \
    --warm-journal "$journal_dir/journal" \
    || { echo "chaos smoke: fleet boot failed" >&2; exit 1; }

# Same open-loop shape as the load smoke (40 req/s x 5s, duplicate-heavy,
# trivial simulations, no deadlines), plus the kill: shard 0's worker dies
# 2 seconds into the schedule and must be respawned with 3 seconds of
# traffic still to serve.
"$load_bin" --target "127.0.0.1:$serve_port" \
    --rate 40 --duration-s 5 --senders 4 \
    --refs 20000 --duplicate-ratio 0.6 --deadline-fraction 0 \
    --chaos "kill:0@2" \
    --out "$out" \
    || { echo "chaos smoke: dynex-load failed (see summary above)" >&2; exit 1; }

grep -q '"schema":"dynex-load/v1"' "$out" \
    || { echo "chaos smoke: report is not a dynex-load/v1 document: $(head -c 300 "$out")" >&2; exit 1; }
if grep -q '"ok":0,' "$out"; then
    echo "chaos smoke: zero requests succeeded" >&2; exit 1
fi
# The kill must have been delivered and the shard must have recovered.
grep -q '"killed":true' "$out" \
    || { echo "chaos smoke: the scheduled kill was never delivered" >&2; exit 1; }
if grep -q '"recovery_us":null' "$out"; then
    echo "chaos smoke: the killed shard never recovered" >&2; exit 1
fi
# The supervisor respawned the worker on its slot.
respawns=$(grep -o '"respawns":{"0":[0-9]*' "$out" | grep -o '[0-9]*$' || echo 0)
[ "${respawns:-0}" -ge 1 ] \
    || { echo "chaos smoke: shard 0 was never respawned: $(grep -o '"respawns":{[^}]*}' "$out")" >&2; exit 1; }
# Warm recovery gave byte-identical answers; the survivor never erred.
grep -q '"divergences":0' "$out" \
    || { echo "chaos smoke: responses diverged across the kill: $(grep -o '"divergences":[0-9]*' "$out")" >&2; exit 1; }
grep -q '"survivor_errors":0' "$out" \
    || { echo "chaos smoke: the surviving shard returned errors: $(grep -o '"survivor_errors":[0-9]*' "$out")" >&2; exit 1; }
# No wrong failures: router 503s during recovery are expected, anything
# else in the taxonomy is a bug surfaced by the chaos.
for bad in '"http-500"' '"http-504"' '"transport-connect"' '"transport-timeout"' '"transport-other"'; do
    if grep -q "$bad" "$out"; then
        echo "chaos smoke: forbidden error kind $bad: $(grep -o '"errors":{[^}]*}' "$out")" >&2
        exit 1
    fi
done
# Both verdicts — the chaos audit and the client/server cross-check — are
# pinned in the document (the zero exit above already enforced them).
consistent=$(grep -o '"consistent":true' "$out" | wc -l)
[ "$consistent" -eq 2 ] \
    || { echo "chaos smoke: expected 2 consistent:true verdicts, found $consistent" >&2; exit 1; }

drain=$(roundtrip POST /shutdown "")
echo "$drain" | grep -q '"status":"draining"' \
    || { echo "chaos smoke: shutdown did not drain: $drain" >&2; exit 1; }
await_exit "$serve_pid" 15 \
    || { echo "chaos smoke: fleet did not exit after drain" >&2; exit 1; }
serve_pid=""

echo "chaos smoke: OK ($(grep -o '"recovery_us":[0-9]*' "$out" | head -1), respawns=$respawns)"
