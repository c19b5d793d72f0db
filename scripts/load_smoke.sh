#!/usr/bin/env bash
# Load smoke: boot the release dynex-serve as a 2-shard fleet (router + two
# worker processes), drive 5 seconds of open-loop traffic through the
# release dynex-load harness, and gate on the run being *healthy*:
#
#   * the report is a well-formed dynex-load/v1 document,
#   * throughput is non-zero (requests completed and references simulated),
#   * zero 5xx responses and zero transport errors,
#   * the client/server cross-check passed (dynex-load exits non-zero
#     otherwise — a zero exit already vouches for it),
#   * the fleet drains and every process exits after POST /shutdown.
#
# A does-the-tier-serve-under-load gate, not a performance gate: the box
# this runs on (CI) may have a single core, so numbers are not asserted
# beyond "greater than zero".
#
# Set LOAD_SMOKE_OUT to keep the JSON report (CI uploads it as an
# artifact); default is a temp file.
#
#   scripts/load_smoke.sh [path-to-dynex-serve] [path-to-dynex-load]
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/smoke_lib.sh
. scripts/smoke_lib.sh

serve_bin="${1:-target/release/dynex-serve}"
load_bin="${2:-target/release/dynex-load}"
[ -x "$serve_bin" ] || { echo "load smoke: $serve_bin not built" >&2; exit 1; }
[ -x "$load_bin" ] || { echo "load smoke: $load_bin not built" >&2; exit 1; }

log=$(mktemp)
out="${LOAD_SMOKE_OUT:-$(mktemp)}"
cleanup() {
    rm -f "$log"
    [ -z "${LOAD_SMOKE_OUT:-}" ] && rm -f "$out"
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

boot_serve "$serve_bin" "$log" --port 0 --shards 2 \
    || { echo "load smoke: fleet boot failed" >&2; exit 1; }

# Open loop: 40 req/s for 5s (200 requests), trivial simulations so a
# 1-core box stays ahead of the schedule, duplicate-heavy so the result
# caches see hits, no deadlines so nothing can legitimately 504. The mix
# spreads over the full policy zoo: the paper's dm/de/opt plus the PR-10
# ehc and bwcost members, so the smoke exercises the one policy
# dispatch path for every policy the serve tier accepts.
"$load_bin" --target "127.0.0.1:$serve_port" \
    --rate 40 --duration-s 5 --senders 4 \
    --refs 20000 --duplicate-ratio 0.6 --deadline-fraction 0 \
    --policies dm,de,opt,ehc,bwcost \
    --out "$out" \
    || { echo "load smoke: dynex-load failed (see summary above)" >&2; exit 1; }

grep -q '"schema":"dynex-load/v1"' "$out" \
    || { echo "load smoke: report is not a dynex-load/v1 document: $(head -c 300 "$out")" >&2; exit 1; }
# Non-zero throughput: some requests succeeded and simulated references.
if grep -q '"ok":0,' "$out"; then
    echo "load smoke: zero requests succeeded" >&2; exit 1
fi
if grep -q '"refs_total":0,' "$out"; then
    echo "load smoke: zero references simulated" >&2; exit 1
fi
# Zero 5xx and zero transport errors: the error taxonomy must be empty.
grep -q '"errors":{}' "$out" \
    || { echo "load smoke: run had errors: $(grep -o '"errors":{[^}]*}' "$out")" >&2; exit 1; }
# The cross-check verdict is recorded in the document too (the zero exit
# above already enforced it; this pins the field for artifact consumers).
grep -q '"consistent":true' "$out" \
    || { echo "load smoke: cross-check not recorded as consistent" >&2; exit 1; }
# The merged fleet view made it into the report: per-shard breakdown plus
# router counters prove the traffic went through the sharded tier.
grep -q '"shards":\[' "$out" \
    || { echo "load smoke: report carries no per-shard metrics breakdown" >&2; exit 1; }
grep -q '"router-routed":' "$out" \
    || { echo "load smoke: report carries no router counters" >&2; exit 1; }

drain=$(roundtrip POST /shutdown "")
echo "$drain" | grep -q '"status":"draining"' \
    || { echo "load smoke: shutdown did not drain: $drain" >&2; exit 1; }
# Router + 2 shard processes: give the fleet drain a little longer.
await_exit "$serve_pid" 15 \
    || { echo "load smoke: fleet did not exit after drain" >&2; exit 1; }
serve_pid=""

echo "load smoke: OK ($(grep -o '"reqs_per_s":[0-9.]*' "$out"), $(grep -o '"refs_per_s":[0-9.]*' "$out"))"
