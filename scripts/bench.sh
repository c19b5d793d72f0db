#!/usr/bin/env bash
# Repository benchmarks, one JSON artifact per PR's performance claim:
#
#   scripts/bench.sh            # all sections
#   scripts/bench.sh pr2        # engine scaling only  -> results/BENCH_PR2.json
#   scripts/bench.sh pr4        # batch kernel only    -> results/BENCH_PR4.json
#   scripts/bench.sh pr6        # tracing overhead     -> results/BENCH_PR6.json
#   scripts/bench.sh pr9        # sweep kernel         -> results/BENCH_PR9.json
#   scripts/bench.sh pr10       # policy zoo           -> results/BENCH_PR10.json
#
# Environment knobs:
#   DYNEX_BENCH_JOBS=8          worker count for the parallel runs
#   DYNEX_BENCH_SWEEP_REFS=N    per-benchmark budget for the figure sweeps
#   DYNEX_BENCH_TRACE_REFS=N    single-trace length
#   DYNEX_BENCH_OUT_DIR=DIR     where the JSON lands (default results/)
#
# Sections:
#   pr2  engine scaling: fig5 sweep fan-out at jobs=1 vs jobs=N
#        (see EXPERIMENTS.md "Engine scaling")
#   pr4  batch kernel: reference vs batch refs-per-second on dm/de/opt single
#        traces and on a full figure sweep (fused triple), both at jobs=1 so
#        the kernel, not the pool, is the measured variable
#   pr6  tracing overhead: the fused batch kernel with tracing off vs a full
#        --trace-out span stream on the same trace (outputs diffed for
#        bit-identity), plus the span_report.sh self-profile of the stream
#   pr9  sweep kernel: fig5 and the full figure set under reference, batch
#        and sweep, plus refs/s scaling at N = 1/4/16/64 simultaneous configs
#        via `simcache --sweep`. Batch and sweep now name one code path (the
#        one-pass multi-configuration kernel), so their rows should agree;
#        the section records that they do
#   pr10 policy zoo: reference vs batch refs-per-second for every policy
#        with a fast kernel (dm/de/opt plus the ehc and bwcost zoo members),
#        outputs diffed for bit-identity, and ehc on the sweep kernel diffed
#        against reference
#
# Every timed pair also diffs its outputs: the benchmarks double as
# determinism/bit-identity checks, so a silent divergence fails the script.
# Numbers are recorded honestly: on a single-core machine the pr2 speedups
# are ~1x (threading overhead included).
set -euo pipefail
cd "$(dirname "$0")/.."

SECTION=${1:-all}
case "$SECTION" in
    pr2|pr4|pr6|pr9|pr10|all) ;;
    *) echo "usage: scripts/bench.sh [pr2|pr4|pr6|pr9|pr10|all]" >&2; exit 2 ;;
esac

CORES=$(nproc 2>/dev/null || echo 1)
JOBS_N=${DYNEX_BENCH_JOBS:-$CORES}
# On a 1-core machine jobs=N would equal jobs=1; use 4 workers so the
# parallel machinery (queue, shard merge) is actually on the measured path.
[ "$JOBS_N" -le 1 ] && JOBS_N=4

SWEEP_REFS=${DYNEX_BENCH_SWEEP_REFS:-2000000}
TRACE_REFS=${DYNEX_BENCH_TRACE_REFS:-10000000}
OUT_DIR=${DYNEX_BENCH_OUT_DIR:-results}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "==> cargo build --release"
cargo build --release --workspace -q

EXPERIMENTS=target/release/experiments
TRACEGEN=target/release/tracegen
SIMCACHE=target/release/simcache

now() { date +%s.%N; }
elapsed() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.3f", b - a }'; }
rate() { awk -v refs="$1" -v s="$2" 'BEGIN { printf "%.0f", refs / s }'; }
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }

mkdir -p "$OUT_DIR"

# The gcc trace is shared by both sections; generated once on demand.
GCC_TRACE=""
gcc_trace() {
    if [ -z "$GCC_TRACE" ]; then
        GCC_TRACE="$TMP/gcc.dxt"
        "$TRACEGEN" gcc --refs "$TRACE_REFS" "$GCC_TRACE" >/dev/null
    fi
}

# ---------------------------------------------------------------------------
# pr2: engine scaling (sweep fan-out)
# ---------------------------------------------------------------------------
bench_pr2() {
    local out="$OUT_DIR/BENCH_PR2.json"

    echo "==> [pr2] figure sweep (fig5, $SWEEP_REFS refs) at jobs=1 vs jobs=$JOBS_N"
    t0=$(now); "$EXPERIMENTS" --jobs 1 --refs "$SWEEP_REFS" fig5 >"$TMP/sweep1.txt"; t1=$(now)
    local sweep_s1; sweep_s1=$(elapsed "$t0" "$t1")
    t0=$(now); "$EXPERIMENTS" --jobs "$JOBS_N" --refs "$SWEEP_REFS" fig5 >"$TMP/sweepN.txt"; t1=$(now)
    local sweep_sn; sweep_sn=$(elapsed "$t0" "$t1")
    # Determinism spot check: the table must be identical at any worker count.
    diff "$TMP/sweep1.txt" "$TMP/sweepN.txt" >/dev/null \
        || { echo "bench: sweep output differs between jobs=1 and jobs=$JOBS_N" >&2; exit 1; }

    cat >"$out" <<EOF
{
  "bench": "dynex-engine scaling (PR 2)",
  "machine": { "cores": $CORES, "jobs_n": $JOBS_N },
  "figure_sweep": {
    "experiment": "fig5",
    "refs_per_benchmark": $SWEEP_REFS,
    "seconds_jobs_1": $sweep_s1,
    "seconds_jobs_n": $sweep_sn,
    "speedup": $(ratio "$sweep_s1" "$sweep_sn")
  }
}
EOF
    echo "bench: wrote $out"
    cat "$out"
}

# ---------------------------------------------------------------------------
# pr4: batch kernel vs reference simulators (refs per second)
# ---------------------------------------------------------------------------

# run_kernel ORG KERNEL TAG: one simcache run at jobs=1 (the kernel swap is
# the only variable on the measured path). Sets KERNEL_SECS to the total
# wall seconds and KERNEL_RATE to the simulation-only refs/s that simcache
# reports on stderr ("sim: N references in S (R refs/s)") — the rate is the
# kernel comparison, the wall seconds record the end-to-end cost honestly
# (trace load/decode included, identical for both kernels).
run_kernel() {
    local org="$1" kernel="$2" tag="$3" t0 t1
    t0=$(now)
    "$SIMCACHE" "$GCC_TRACE" --size 32K --org "$org" --kernel "$kernel" --jobs 1 \
        >"$TMP/$tag.txt" 2>"$TMP/$tag.err"
    t1=$(now)
    KERNEL_SECS=$(elapsed "$t0" "$t1")
    KERNEL_RATE=$(awk '/^sim:/ { gsub(/[()]/, ""); print $(NF-1) }' "$TMP/$tag.err")
    [ -n "$KERNEL_RATE" ] || { echo "bench: no sim: line in $tag stderr" >&2; exit 1; }
}

bench_pr4() {
    local out="$OUT_DIR/BENCH_PR4.json"
    gcc_trace

    local orgs_json=""
    local org sr sb rr rb
    for org in dm de opt; do
        echo "==> [pr4] single trace ($TRACE_REFS refs, 32K $org): reference vs batch kernel"
        run_kernel "$org" reference "$org-ref"; sr=$KERNEL_SECS; rr=$KERNEL_RATE
        run_kernel "$org" batch "$org-batch"; sb=$KERNEL_SECS; rb=$KERNEL_RATE
        # Bit-identity check: the kernels must print the same statistics.
        diff "$TMP/$org-ref.txt" "$TMP/$org-batch.txt" >/dev/null \
            || { echo "bench: $org output differs between kernels" >&2; exit 1; }
        [ -n "$orgs_json" ] && orgs_json="$orgs_json,"
        orgs_json="$orgs_json
    \"$org\": {
      \"seconds_total_reference\": $sr,
      \"seconds_total_batch\": $sb,
      \"refs_per_second_reference\": $rr,
      \"refs_per_second_batch\": $rb,
      \"speedup\": $(ratio "$rb" "$rr")
    }"
    done

    echo "==> [pr4] figure sweep (fig5, $SWEEP_REFS refs, jobs=1): reference vs fused batch triple"
    t0=$(now); "$EXPERIMENTS" --jobs 1 --kernel reference --refs "$SWEEP_REFS" fig5 >"$TMP/fig5-ref.txt"; t1=$(now)
    local sweep_sr; sweep_sr=$(elapsed "$t0" "$t1")
    t0=$(now); "$EXPERIMENTS" --jobs 1 --kernel batch --refs "$SWEEP_REFS" fig5 >"$TMP/fig5-batch.txt"; t1=$(now)
    local sweep_sb; sweep_sb=$(elapsed "$t0" "$t1")
    diff "$TMP/fig5-ref.txt" "$TMP/fig5-batch.txt" >/dev/null \
        || { echo "bench: fig5 output differs between kernels" >&2; exit 1; }

    cat >"$out" <<EOF
{
  "bench": "dynex batch kernel (PR 4)",
  "machine": { "cores": $CORES },
  "single_trace": {
    "trace": "gcc",
    "accesses": $TRACE_REFS,
    "config": "32K, jobs=1",
    "orgs": {$orgs_json
    }
  },
  "figure_sweep_fused_triple": {
    "experiment": "fig5",
    "refs_per_benchmark": $SWEEP_REFS,
    "seconds_reference": $sweep_sr,
    "seconds_batch": $sweep_sb,
    "speedup": $(ratio "$sweep_sr" "$sweep_sb")
  }
}
EOF
    echo "bench: wrote $out"
    cat "$out"
}

# ---------------------------------------------------------------------------
# pr6: tracing overhead (fused batch kernel, tracing off vs --trace-out)
# ---------------------------------------------------------------------------
bench_pr6() {
    local out="$OUT_DIR/BENCH_PR6.json"
    gcc_trace

    echo "==> [pr6] single trace ($TRACE_REFS refs, 32K de batch): untraced vs --trace-out"
    # Untimed warmup: the first reader of the freshly written trace pays the
    # page-cache fill (~seconds for the 10M-ref file), which would otherwise
    # land entirely on the untraced side of the timed pair.
    "$SIMCACHE" "$GCC_TRACE" --size 32K --org de --kernel batch --jobs 1 >/dev/null 2>&1
    run_kernel de batch "de-untraced"
    local s_off=$KERNEL_SECS r_off=$KERNEL_RATE

    local spans="$TMP/pr6-spans.jsonl" t0 t1
    t0=$(now)
    "$SIMCACHE" "$GCC_TRACE" --size 32K --org de --kernel batch --jobs 1 \
        --trace-out "$spans" >"$TMP/de-traced.txt" 2>"$TMP/de-traced.err"
    t1=$(now)
    local s_on; s_on=$(elapsed "$t0" "$t1")
    local r_on; r_on=$(awk '/^sim:/ { gsub(/[()]/, ""); print $(NF-1) }' "$TMP/de-traced.err")
    [ -n "$r_on" ] || { echo "bench: no sim: line in traced stderr" >&2; exit 1; }

    # Bit-identity: tracing must not change a single output byte.
    diff "$TMP/de-untraced.txt" "$TMP/de-traced.txt" >/dev/null \
        || { echo "bench: output differs between untraced and traced runs" >&2; exit 1; }
    [ -s "$spans" ] || { echo "bench: --trace-out produced no spans" >&2; exit 1; }
    grep -q '"stage":"kernel.simulate"' "$spans" \
        || { echo "bench: span stream has no kernel.simulate spans" >&2; exit 1; }

    # Overhead of the *fully traced* run in percent (negative = traced run
    # measured faster; noise on short runs). The <2% acceptance bound applies
    # to the untraced path vs PR 4, which this same r_off number records.
    local overhead_pct
    overhead_pct=$(awk -v off="$r_off" -v on="$r_on" \
        'BEGIN { printf "%.2f", (off - on) * 100.0 / off }')

    echo "==> [pr6] span_report.sh self-profile"
    scripts/span_report.sh "$spans"
    local profile_json
    profile_json=$(scripts/span_report.sh --json "$spans")

    cat >"$out" <<EOF
{
  "bench": "dynex tracing overhead (PR 6)",
  "machine": { "cores": $CORES },
  "single_trace": {
    "trace": "gcc",
    "accesses": $TRACE_REFS,
    "config": "32K de, batch kernel, jobs=1",
    "seconds_untraced": $s_off,
    "seconds_traced": $s_on,
    "refs_per_second_untraced": $r_off,
    "refs_per_second_traced": $r_on,
    "traced_overhead_percent": $overhead_pct
  },
  "span_profile": $profile_json
}
EOF
    echo "bench: wrote $out"
    cat "$out"
}

# ---------------------------------------------------------------------------
# pr9: one-pass sweep kernel vs per-point kernels (fig5, figure set, N scaling)
# ---------------------------------------------------------------------------

# run_figures KERNEL IDS TAG: one experiments run at jobs=1 under KERNEL.
# Sets FIG_SECS to the wall seconds; output lands in $TMP/$tag.txt for the
# bit-identity diffs below.
run_figures() {
    local kernel="$1" ids="$2" tag="$3" t0 t1
    t0=$(now)
    # shellcheck disable=SC2086 # ids is an intentional word list
    "$EXPERIMENTS" --jobs 1 --kernel "$kernel" --refs "$SWEEP_REFS" $ids >"$TMP/$tag.txt"
    t1=$(now)
    FIG_SECS=$(elapsed "$t0" "$t1")
}

# run_sweep KERNEL SIZES TAG: one `simcache --sweep` run at jobs=1 — N
# dm/de/opt triples over SIZES (both fast kernel names ride one traversal;
# reference runs per point). Sets
# SWEEP_SECS and SWEEP_RATE like run_kernel, from the same stderr `sim:` line
# (refs there = trace length x N configs, so the rate is cross-N comparable).
run_sweep() {
    local kernel="$1" sizes="$2" tag="$3" t0 t1
    t0=$(now)
    "$SIMCACHE" "$GCC_TRACE" --size 32K --sweep "$sizes" --kernel "$kernel" --jobs 1 \
        >"$TMP/$tag.txt" 2>"$TMP/$tag.err"
    t1=$(now)
    SWEEP_SECS=$(elapsed "$t0" "$t1")
    SWEEP_RATE=$(awk '/^sim:/ { gsub(/[()]/, ""); print $(NF-1) }' "$TMP/$tag.err")
    [ -n "$SWEEP_RATE" ] || { echo "bench: no sim: line in $tag stderr" >&2; exit 1; }
}

bench_pr9() {
    local out="$OUT_DIR/BENCH_PR9.json"
    gcc_trace

    echo "==> [pr9] figure sweep (fig5, $SWEEP_REFS refs, jobs=1): reference vs batch vs sweep"
    run_figures reference fig5 "pr9-fig5-ref";   local fig5_sr=$FIG_SECS
    run_figures batch     fig5 "pr9-fig5-batch"; local fig5_sb=$FIG_SECS
    run_figures sweep     fig5 "pr9-fig5-sweep"; local fig5_ss=$FIG_SECS
    # Bit-identity: all three kernels must render the same table bytes.
    diff "$TMP/pr9-fig5-ref.txt" "$TMP/pr9-fig5-batch.txt" >/dev/null \
        || { echo "bench: fig5 output differs between reference and batch kernels" >&2; exit 1; }
    diff "$TMP/pr9-fig5-batch.txt" "$TMP/pr9-fig5-sweep.txt" >/dev/null \
        || { echo "bench: fig5 output differs between batch and sweep kernels" >&2; exit 1; }

    echo "==> [pr9] full figure set ($SWEEP_REFS refs, jobs=1): batch vs sweep"
    run_figures batch all "pr9-all-batch"; local all_sb=$FIG_SECS
    run_figures sweep all "pr9-all-sweep"; local all_ss=$FIG_SECS
    diff "$TMP/pr9-all-batch.txt" "$TMP/pr9-all-sweep.txt" >/dev/null \
        || { echo "bench: figure set output differs between batch and sweep kernels" >&2; exit 1; }

    # Untimed warmup: the first reader of the freshly written trace pays the
    # page-cache fill (see pr6), which would otherwise land on the N=1 batch
    # row below and flatter the sweep kernel.
    "$SIMCACHE" "$GCC_TRACE" --size 32K --org de --kernel batch --jobs 1 >/dev/null 2>&1

    # N-config scaling: dm/de/opt triples at N cache sizes through one trace.
    # The size list cycles an 8-point ladder; repeats are legitimate sweep
    # points (independent state) and keep the footprint-per-config constant.
    local ladder="1K,2K,4K,8K,16K,32K,64K,128K"
    local scaling_json="" n sizes sb rb ss rs
    for n in 1 4 16 64; do
        case "$n" in
            1)  sizes="32K" ;;
            4)  sizes="8K,16K,32K,64K" ;;
            16) sizes="$ladder,$ladder" ;;
            64) sizes="$ladder,$ladder,$ladder,$ladder,$ladder,$ladder,$ladder,$ladder" ;;
        esac
        echo "==> [pr9] N=$n config sweep ($TRACE_REFS refs, jobs=1): batch vs sweep kernel"
        run_sweep batch "$sizes" "pr9-n$n-batch"; sb=$SWEEP_SECS; rb=$SWEEP_RATE
        run_sweep sweep "$sizes" "pr9-n$n-sweep"; ss=$SWEEP_SECS; rs=$SWEEP_RATE
        diff "$TMP/pr9-n$n-batch.txt" "$TMP/pr9-n$n-sweep.txt" >/dev/null \
            || { echo "bench: N=$n sweep output differs between kernels" >&2; exit 1; }
        [ -n "$scaling_json" ] && scaling_json="$scaling_json,"
        scaling_json="$scaling_json
    {
      \"configs\": $n,
      \"sizes\": \"$sizes\",
      \"seconds_batch\": $sb,
      \"seconds_sweep\": $ss,
      \"refs_per_second_batch\": $rb,
      \"refs_per_second_sweep\": $rs,
      \"speedup\": $(ratio "$rs" "$rb")
    }"
    done

    cat >"$out" <<EOF
{
  "bench": "dynex sweep kernel (PR 9)",
  "machine": { "cores": $CORES },
  "figure_sweep": {
    "experiment": "fig5",
    "refs_per_benchmark": $SWEEP_REFS,
    "seconds_reference": $fig5_sr,
    "seconds_batch": $fig5_sb,
    "seconds_sweep": $fig5_ss,
    "speedup_vs_reference": $(ratio "$fig5_sr" "$fig5_ss"),
    "speedup_vs_batch": $(ratio "$fig5_sb" "$fig5_ss")
  },
  "figure_set": {
    "experiment": "all",
    "refs_per_benchmark": $SWEEP_REFS,
    "seconds_batch": $all_sb,
    "seconds_sweep": $all_ss,
    "speedup_vs_batch": $(ratio "$all_sb" "$all_ss")
  },
  "n_config_scaling": {
    "trace": "gcc",
    "accesses": $TRACE_REFS,
    "points": [$scaling_json
    ]
  }
}
EOF
    echo "bench: wrote $out"
    cat "$out"
}

# ---------------------------------------------------------------------------
# pr10: policy zoo (reference vs batch refs/s for every policy with a fast
# kernel, bit-identity enforced per policy)
# ---------------------------------------------------------------------------
bench_pr10() {
    local out="$OUT_DIR/BENCH_PR10.json"
    gcc_trace

    # Untimed warmup (see pr6): the first reader of the freshly written
    # trace pays the page-cache fill.
    "$SIMCACHE" "$GCC_TRACE" --size 32K --policy dm --kernel batch --jobs 1 >/dev/null 2>&1

    # Every policy with a fast kernel of its own (the others run their
    # reference simulators on every kernel).
    local policies_json=""
    local policy sr sb rr rb
    for policy in dm de opt ehc bwcost; do
        echo "==> [pr10] single trace ($TRACE_REFS refs, 32K $policy): reference vs batch kernel"
        run_kernel "$policy" reference "pr10-$policy-ref"; sr=$KERNEL_SECS; rr=$KERNEL_RATE
        run_kernel "$policy" batch "pr10-$policy-batch"; sb=$KERNEL_SECS; rb=$KERNEL_RATE
        # Bit-identity check: the kernels must print the same statistics
        # (for ehc/bwcost that includes the fills/writebacks/probes traffic
        # counters the zoo driver accounts).
        diff "$TMP/pr10-$policy-ref.txt" "$TMP/pr10-$policy-batch.txt" >/dev/null \
            || { echo "bench: $policy output differs between kernels" >&2; exit 1; }
        [ -n "$policies_json" ] && policies_json="$policies_json,"
        policies_json="$policies_json
    \"$policy\": {
      \"seconds_total_reference\": $sr,
      \"seconds_total_batch\": $sb,
      \"refs_per_second_reference\": $rr,
      \"refs_per_second_batch\": $rb,
      \"speedup\": $(ratio "$rb" "$rr")
    }"
    done

    # Every kernel runs every policy: ehc on the sweep kernel must print
    # exactly what the reference kernel prints.
    echo "==> [pr10] ehc on the sweep kernel vs reference"
    run_kernel ehc sweep "pr10-ehc-sweep"
    diff "$TMP/pr10-ehc-ref.txt" "$TMP/pr10-ehc-sweep.txt" >/dev/null \
        || { echo "bench: ehc output differs between the sweep and reference kernels" >&2; exit 1; }

    cat >"$out" <<JSONEOF
{
  "bench": "dynex policy zoo (PR 10)",
  "machine": { "cores": $CORES },
  "single_trace": {
    "trace": "gcc",
    "accesses": $TRACE_REFS,
    "config": "32K, jobs=1",
    "policies": {$policies_json
    }
  },
  "ehc_on_sweep": {
    "combo": "ehc x sweep kernel",
    "identical_to_reference": true
  }
}
JSONEOF
    echo "bench: wrote $out"
    cat "$out"
}

case "$SECTION" in
    pr2) bench_pr2 ;;
    pr4) bench_pr4 ;;
    pr6) bench_pr6 ;;
    pr9) bench_pr9 ;;
    pr10) bench_pr10 ;;
    all) bench_pr2; bench_pr4; bench_pr6; bench_pr9; bench_pr10 ;;
esac
