#!/usr/bin/env bash
# Shard-scaling sweep: run the same open-loop load against 1-, 2-, and
# 4-shard fleets (each boot is router + N worker processes, so the 1-shard
# run includes router overhead and the comparison is topology-to-topology)
# and record every per-run dynex-load/v1 document in one
# dynex-load-sweep/v1 file under results/.
#
# This is a *measurement* script, not a gate: it records whatever the box
# produces. On a single-core host, N workers share one core, so do not
# expect shard scaling — the point of recording the run is to say so with
# numbers. Knobs via environment:
#
#   SHARDS_LIST  shard counts to sweep        (default "1 2 4")
#   RATE         open-loop req/s              (default 40)
#   DURATION_S   seconds per run              (default 8)
#   REFS         references per request      (default 50000)
#   DUP_RATIO    duplicate ratio              (default 0.5)
#   SWEEP_OUT    output path                  (default results/LOAD_sweep.json)
#
#   scripts/load_sweep.sh [path-to-dynex-serve] [path-to-dynex-load]
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/smoke_lib.sh
. scripts/smoke_lib.sh

serve_bin="${1:-target/release/dynex-serve}"
load_bin="${2:-target/release/dynex-load}"
[ -x "$serve_bin" ] || { echo "load sweep: $serve_bin not built" >&2; exit 1; }
[ -x "$load_bin" ] || { echo "load sweep: $load_bin not built" >&2; exit 1; }

shards_list="${SHARDS_LIST:-1 2 4}"
rate="${RATE:-40}"
duration_s="${DURATION_S:-8}"
refs="${REFS:-50000}"
dup_ratio="${DUP_RATIO:-0.5}"
sweep_out="${SWEEP_OUT:-results/LOAD_sweep.json}"
mkdir -p "$(dirname "$sweep_out")"

log=$(mktemp)
run_out=$(mktemp)
cleanup() {
    rm -f "$log" "$run_out"
    [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true
}
trap cleanup EXIT

cores=$(nproc 2>/dev/null || echo "?")
runs=""
for shards in $shards_list; do
    echo "load sweep: $shards shard(s), $rate req/s for ${duration_s}s..." >&2
    boot_serve "$serve_bin" "$log" --port 0 --shards "$shards" \
        || { echo "load sweep: $shards-shard fleet boot failed" >&2; exit 1; }
    "$load_bin" --target "127.0.0.1:$serve_port" \
        --rate "$rate" --duration-s "$duration_s" --senders 4 \
        --refs "$refs" --duplicate-ratio "$dup_ratio" --deadline-fraction 0 \
        --out "$run_out" \
        || { echo "load sweep: $shards-shard run failed" >&2; exit 1; }
    roundtrip POST /shutdown "" >/dev/null
    await_exit "$serve_pid" 15 \
        || { echo "load sweep: $shards-shard fleet did not exit" >&2; exit 1; }
    serve_pid=""
    [ -n "$runs" ] && runs="$runs,"
    runs="$runs{\"shards\":$shards,\"run\":$(cat "$run_out")}"
    : >"$log"
done

printf '{"schema":"dynex-load-sweep/v1","cores":"%s","rate":%s,"duration_s":%s,"refs":%s,"duplicate_ratio":%s,"runs":[%s]}\n' \
    "$cores" "$rate" "$duration_s" "$refs" "$dup_ratio" "$runs" >"$sweep_out"
echo "load sweep: recorded $(echo "$shards_list" | wc -w) run(s) in $sweep_out"
