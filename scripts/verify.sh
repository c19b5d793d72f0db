#!/usr/bin/env bash
# Local verification gate: exactly what CI runs.
#
#   scripts/verify.sh          # fmt + clippy + release build + tests
#   scripts/verify.sh --quick  # skip the release build
#
# The workspace is hermetic (no registry access needed); the property tests
# are opt-in and NOT covered here.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release --workspace
fi

echo "==> cargo test"
cargo test --workspace -q

# The fault-injection suite is part of the workspace run above; name it
# explicitly so a resilience regression is impossible to miss in the log.
echo "==> cargo test --test resilience (fault isolation, resume, lenient ingest)"
cargo test -q -p dynex-experiments --test resilience

# perfbench is a separate package (its own workspace, outside the workspace
# build above) that calls the public APIs of every crate: build it and run
# its harness tests so an API change cannot silently break the benchmark.
echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Serve smoke: boot dynex-serve, round-trip a request twice (fresh + cache
# hit) over /dev/tcp, drain gracefully, and require a clean process exit.
# (Skipped under --quick: it needs the release binary.)
if [ "$quick" -eq 0 ]; then
    echo "==> serve smoke (round-trip + graceful drain)"
    scripts/serve_smoke.sh
fi

# Load smoke: boot a 2-shard fleet (router + worker processes), drive 5s of
# open-loop traffic through dynex-load, and gate on zero errors plus a
# passing client/server cross-check. A does-the-tier-serve-under-load gate,
# not a performance gate. (Skipped under --quick: needs release binaries.)
if [ "$quick" -eq 0 ]; then
    echo "==> load smoke (2-shard fleet, open-loop traffic, cross-check)"
    scripts/load_smoke.sh
fi

# Chaos smoke: same fleet and traffic shape as the load smoke, but shard
# 0's worker is SIGKILLed 2 seconds in. Gates on the self-healing story:
# a respawn, a recorded recovery, zero divergences, zero survivor errors.
# (Skipped under --quick: needs release binaries.)
if [ "$quick" -eq 0 ]; then
    echo "==> chaos smoke (kill a shard mid-run, gate on warm recovery)"
    scripts/chaos_smoke.sh
fi

# Figure jobs- and kernel-invariance: the whole figure set at one and two
# workers must write byte-identical CSVs (every per-benchmark fan-out sums
# its results in benchmark order), and the reference kernel must write the
# same CSVs as the default fast one (the one-pass hierarchy kernel of
# Figures 7-9 against its per-point spec simulators, among others).
# (Skipped under --quick: needs the release binary.)
if [ "$quick" -eq 0 ]; then
    echo "==> figure jobs- and kernel-invariance (experiments all, --jobs 1 vs --jobs 2 vs --kernel reference)"
    inv_dir=$(mktemp -d)
    target/release/experiments --jobs 1 --refs 20000 --out "$inv_dir/A" all >/dev/null
    target/release/experiments --jobs 2 --refs 20000 --out "$inv_dir/B" all >/dev/null
    target/release/experiments --kernel reference --jobs 2 --refs 20000 --out "$inv_dir/C" all >/dev/null
    if ! diff -r "$inv_dir/A" "$inv_dir/B"; then
        echo "verify: figure CSVs differ between --jobs 1 and --jobs 2" >&2
        exit 1
    fi
    if ! diff -r "$inv_dir/A" "$inv_dir/C"; then
        echo "verify: figure CSVs differ between the default and the reference kernel" >&2
        exit 1
    fi
    rm -rf "$inv_dir"
fi

# Figure resume: perfbench never installs a journal, so the keyed path of
# the figure sweeps gets its own gate. A second `--resume` run over the same
# journal must write the same CSVs and replay every point it checkpointed.
# (Skipped under --quick: needs the release binary.)
if [ "$quick" -eq 0 ]; then
    echo "==> figure resume (experiments --resume, fig4 + fig12 twice)"
    resume_dir=$(mktemp -d)
    for run in 1 2; do
        target/release/experiments --resume "$resume_dir/journal.jsonl" --refs 20000 \
            --out "$resume_dir/run$run" fig4 fig12 >/dev/null 2>"$resume_dir/run$run.err"
    done
    if ! diff -r "$resume_dir/run1" "$resume_dir/run2"; then
        echo "verify: figure CSVs differ between a fresh and a resumed run" >&2
        exit 1
    fi
    summary=$(grep '^resume journal:' "$resume_dir/run2.err" || true)
    replayed=$(echo "$summary" | sed -n 's/^resume journal: \([0-9]*\) point(s) replayed, \([0-9]*\) checkpointed$/\1/p')
    recorded=$(echo "$summary" | sed -n 's/^resume journal: \([0-9]*\) point(s) replayed, \([0-9]*\) checkpointed$/\2/p')
    if [ -z "$replayed" ] || [ "$replayed" -eq 0 ] || [ "$replayed" != "$recorded" ]; then
        echo "verify: resumed figure run did not replay every point (${summary:-no summary})" >&2
        exit 1
    fi
    rm -rf "$resume_dir"
fi

# Bench smoke: scripts/bench.sh at tiny budgets into a throwaway directory.
# This is a does-it-run gate, not a performance gate — it fails on a panic,
# a kernel-output divergence, or a broken JSON pipeline, never on timing.
# (Skipped under --quick: it needs the release binaries.)
if [ "$quick" -eq 0 ]; then
    echo "==> bench smoke (tiny budgets)"
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    DYNEX_BENCH_SWEEP_REFS=20000 DYNEX_BENCH_TRACE_REFS=100000 \
        DYNEX_BENCH_OUT_DIR="$smoke_dir" scripts/bench.sh all >/dev/null
    for f in BENCH_PR2.json BENCH_PR4.json BENCH_PR6.json BENCH_PR9.json BENCH_PR10.json; do
        [ -s "$smoke_dir/$f" ] || { echo "verify: bench smoke produced no $f" >&2; exit 1; }
    done
fi

echo "verify: OK"
