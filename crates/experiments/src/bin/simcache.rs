//! `simcache` — run any cache organization over a trace file.
//!
//! ```text
//! simcache <trace.dxt|trace.txt> --size 32K --line 4 \
//!          [--policy dm|de|de-lastline|opt|opt-lastline|ehc|bwcost|2way|4way|victim|stream] \
//!          [--kinds all|instr|data] \
//!          [--kernel reference|batch|sweep] [--sweep 1K,2K,4K,...] \
//!          [--jobs N] [--shard-sets] [--job-retries N] [--job-timeout-ms N] \
//!          [--lenient N] [--resume journal.jsonl] \
//!          [--events-out e.jsonl] [--metrics-out m.json] \
//!          [--intervals-out i.csv] [--interval N]
//! ```
//!
//! Reads a `dynex-trace` file (binary `.dxt` or the text format, detected by
//! the magic), simulates, and prints hit/miss statistics.
//!
//! `--policy` selects a member of the replacement-policy zoo (`--org` is
//! the legacy alias). `--kernel` selects between the reference simulators,
//! the batch kernels, and the one-pass multi-configuration sweep kernel for
//! the `dm`, `de`, and `opt` policies (default `batch`). Each policy
//! declares its per-kernel support: `ehc` and `bwcost` run under
//! `reference` and `batch` but reject `sweep` with a structured error, and
//! the last-line variants and the `2way`/`4way`/`victim`/`stream`
//! organizations always run their reference simulators.
//! All supported combinations produce bit-identical
//! statistics, exclusion counters, and observability output — including
//! under `--shard-sets` and `--resume` (journal keys do not encode the
//! kernel, so a run checkpointed under one kernel replays under any other).
//!
//! `--sweep 1K,2K,4K,...` simulates the full dm/de/opt triple at *every*
//! listed size in one session (duplicate sizes are allowed and keep
//! independent state). Under `--kernel sweep` the whole list rides a single
//! trace traversal via `batch_sweep`; under `reference`/`batch` each size
//! runs point-by-point. Stdout (one line per size, in list order) is
//! byte-identical across kernels; stderr reports aggregate throughput where
//! one "reference" is one trace reference carried through one size's triple
//! — this is the N-configuration scaling probe `scripts/bench.sh` uses.
//! Plain runs only: `--sweep` combines with neither `--shard-sets`,
//! `--resume`, nor the observability outputs.
//!
//! `--lenient N` tolerates up to `N` corrupt records in the trace: bad
//! packed words / malformed text lines are skipped and counted (reported via
//! trace statistics and the observability `trace-skip` event) instead of
//! aborting the run; the read still fails fast once the budget is exceeded.
//!
//! `--resume journal.jsonl` checkpoints the run's final statistics into an
//! append-only journal keyed by a content hash of the organization,
//! configuration, and trace; re-running with the same journal replays the
//! result without simulating, byte-identical. Plain runs only (it combines
//! with neither `--shard-sets` nor the observability outputs).
//!
//! `--shard-sets` splits the trace by cache-set index and simulates the
//! shards concurrently on `--jobs` workers (default: `DYNEX_JOBS` or all
//! cores). This is exact — per-set state is independent — and therefore only
//! supported for `--policy dm|de|opt`; the other policies have cross-set
//! state (last-line buffers, victim/stream buffers, hashed stores) that
//! sharding would perturb. Statistics and observability outputs are merged
//! deterministically: counters and histograms sum, and the events JSONL is
//! the concatenation of the shard logs in shard order (not interleaved by
//! global access order).
//!
//! Uninstrumented sharded runs are *fault-isolated*: each shard job runs
//! under panic containment with a bounded retry budget (`--job-retries`) and
//! an optional soft deadline (`--job-timeout-ms`). A panicking or hung shard
//! fails alone — the remaining shards complete, a per-cell summary table is
//! printed, and the exit status is nonzero only when failures remain.
//!
//! Any of the `--*-out` flags attaches a probe to the simulated cache:
//! `--events-out` streams every [`dynex_obs::Event`] as JSONL,
//! `--metrics-out` writes the aggregated counter/histogram registry (plus
//! the interval series) as JSON, and `--intervals-out` writes the per-window
//! miss rates as CSV. `--interval` sets the window size in accesses
//! (default 1000). Without these flags the run is completely
//! uninstrumented — the probe type monomorphizes to a no-op.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dynex::DeStats;
use dynex::{DeCache, LastLineDeCache, PerfectStore};
use dynex_cache::{
    batch_de_probed, batch_dm_probed, batch_sweep_probed, run_addrs, CacheConfig, CacheSim,
    CacheStats, DirectMapped, Kernel, Replacement, SetAssociative, StreamBuffer, SweepPoint,
    SweepPolicy, VictimCache,
};
use dynex_engine::{
    default_kernel, execute, execute_resilient, shard_by_set, PolicyKind, PolicyRun, Resilience,
};
use dynex_experiments::api::{self, parse_size, SimulationRequest};
use dynex_experiments::Triple;
use dynex_obs::{export, Collector, CountingProbe, Event, EventLog};
use dynex_trace::{io as trace_io, ReadPolicy, Trace, TraceStats};

/// Loads a trace under the given read policy, returning the number of
/// corrupt records skipped (always 0 under [`ReadPolicy::Strict`]).
fn load_trace(path: &str, policy: ReadPolicy) -> Result<(Trace, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let probe = CountingProbe::new();
    let result = if bytes.starts_with(&trace_io::BINARY_MAGIC) {
        trace_io::read_binary_with(&bytes[..], policy, probe)
    } else {
        trace_io::read_text_with(&bytes[..], policy, probe)
    };
    let (trace, report) = result.map_err(|e| format!("{path}: {e}"))?;
    Ok((trace, report.skipped))
}

fn usage() {
    eprintln!(
        "usage: simcache <trace-file> --size <bytes|NK|NM> [--line N] \
         [--policy dm|de|de-lastline|opt|opt-lastline|ehc|bwcost|2way|4way|victim|stream] \
         [--org <policy>  (legacy alias)] [--kinds all|instr|data] \
         [--kernel reference|batch|sweep] [--sweep <size,size,...>] \
         [--jobs N] [--shard-sets] [--job-retries N] [--job-timeout-ms N] \
         [--lenient <max-skipped>] [--resume <journal.jsonl>] \
         [--events-out <file.jsonl>] [--metrics-out <file.json>] \
         [--intervals-out <file.csv>] [--interval <N>] [--trace-out <file.jsonl>]"
    );
}

/// Where (and whether) to write observability outputs.
struct ObsConfig {
    events_out: Option<String>,
    metrics_out: Option<String>,
    intervals_out: Option<String>,
    window: u64,
}

impl ObsConfig {
    fn active(&self) -> bool {
        self.events_out.is_some() || self.metrics_out.is_some() || self.intervals_out.is_some()
    }

    fn probe(&self) -> (Collector, EventLog) {
        (Collector::new(self.window), EventLog::new())
    }

    fn write(&self, collector: &Collector, events: &[Event]) -> Result<(), String> {
        if let Some(path) = &self.events_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            export::write_events_jsonl(std::io::BufWriter::new(file), events)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} events to {path}", events.len());
        }
        if let Some(path) = &self.metrics_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            export::write_metrics_json(file, &collector.registry(), Some(collector.intervals()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote metrics to {path}");
        }
        if let Some(path) = &self.intervals_out {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            export::write_intervals_csv(file, collector.intervals())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote intervals to {path}");
        }
        Ok(())
    }
}

/// Reports merged statistics for a set-sharded run.
fn report_sharded(policy: PolicyKind, config: CacheConfig, n_shards: usize, stats: CacheStats) {
    println!(
        "{} [set-sharded x{n_shards}] {config}: {} accesses, {} misses, miss rate {:.4}%",
        policy.name(),
        stats.accesses(),
        stats.misses(),
        stats.miss_rate_percent()
    );
}

/// Fault-injection hooks for the resilient sharded path, driven by the
/// `DYNEX_INJECT_PANIC_SHARD` / `DYNEX_INJECT_HANG_SHARD` environment
/// variables (shard index each). Test-only: they exist so the CLI-level
/// resilience tests can exercise real panics and hangs end to end.
fn injected_fault(env: &str) -> Option<usize> {
    std::env::var(env).ok().and_then(|v| v.parse().ok())
}

/// `--shard-sets`: split the trace by set index, simulate the shards on the
/// engine's worker pool, and merge statistics (and probes) exactly.
///
/// Only `dm`, `de`, and `opt` are accepted
/// ([`PolicyKind::supports_set_sharding`]) — every other policy has
/// cross-set state that set partitioning would perturb.
fn run_sharded(
    policy: PolicyKind,
    config: CacheConfig,
    addrs: &[u32],
    jobs: usize,
    obs: &ObsConfig,
    resilience: Resilience,
) -> ExitCode {
    if !policy.supports_set_sharding() {
        eprintln!(
            "error: --shard-sets supports --policy dm|de|opt only (got {:?}; \
             its cross-set state cannot be partitioned exactly)",
            policy.name()
        );
        return ExitCode::FAILURE;
    }
    let n_shards = jobs;
    eprintln!("set-sharded run: {n_shards} shard(s) on {jobs} worker(s)");

    // OPT is a two-pass oracle without a probed hot path (same as serially).
    if policy == PolicyKind::OptimalDm && obs.active() {
        eprintln!(
            "note: --policy opt is a two-pass oracle without a probed hot path; \
             observability outputs are not written"
        );
    }

    if !obs.active() || policy == PolicyKind::OptimalDm {
        return run_sharded_resilient(policy, config, addrs, n_shards, jobs, resilience);
    }

    // Probed shards: one collector + event log per shard, merged in shard
    // order (counters and histograms sum; the event stream is the
    // concatenation of the shard logs, not a global-order interleave).
    let shards = shard_by_set(config.geometry(), addrs, n_shards);
    let outputs = execute(&shards, jobs, |shard| {
        let _shard_span = dynex_obs::span::span("engine.shard-simulate");
        match (default_kernel(), policy) {
            (Kernel::Batch, PolicyKind::DirectMapped) => {
                let mut probe = obs.probe();
                let stats = batch_dm_probed(config, shard, &mut probe);
                let (collector, log) = probe;
                (stats, None, collector, log)
            }
            (Kernel::Batch, _) => {
                let mut probe = obs.probe();
                let result = batch_de_probed(config, shard, &mut probe);
                let (collector, log) = probe;
                let de_stats = DeStats {
                    loads: result.loads,
                    bypasses: result.bypasses,
                };
                (result.stats, Some(de_stats), collector, log)
            }
            (Kernel::Sweep, PolicyKind::DirectMapped) => {
                let mut probes = [obs.probe()];
                let point = SweepPoint::new(config, SweepPolicy::DirectMapped);
                let results = batch_sweep_probed(&[point], shard, &mut probes);
                let [(collector, log)] = probes;
                (results[0].stats(), None, collector, log)
            }
            (Kernel::Sweep, _) => {
                let mut probes = [obs.probe()];
                let point = SweepPoint::new(config, SweepPolicy::DynamicExclusion);
                let results = batch_sweep_probed(&[point], shard, &mut probes);
                let [(collector, log)] = probes;
                let result = results[0].de().expect("DE sweep point yields DE result");
                let de_stats = DeStats {
                    loads: result.loads,
                    bypasses: result.bypasses,
                };
                (result.stats, Some(de_stats), collector, log)
            }
            (Kernel::Reference, PolicyKind::DirectMapped) => {
                let mut cache = DirectMapped::with_probe(config, obs.probe());
                let stats = run_addrs(&mut cache, shard.iter().copied());
                let (collector, log) = cache.into_probe();
                (stats, None, collector, log)
            }
            (Kernel::Reference, _) => {
                let mut cache = DeCache::with_probe(config, obs.probe());
                let stats = run_addrs(&mut cache, shard.iter().copied());
                let de_stats = cache.de_stats();
                let (collector, log) = cache.into_probe();
                (stats, Some(de_stats), collector, log)
            }
        }
    });

    let mut outputs = outputs.into_iter();
    let Some((mut stats, mut de_stats, mut collector, first_log)) = outputs.next() else {
        // shard_by_set always returns n_shards >= 1 shards; reaching this
        // means the sharding layer broke its contract — fail cleanly rather
        // than panicking in a release binary.
        eprintln!(
            "error: set-sharded run produced no shard outputs \
             (internal error: n_shards={n_shards})"
        );
        return ExitCode::FAILURE;
    };
    let merge_span = dynex_obs::span::span("engine.merge");
    let mut events: Vec<Event> = first_log.into_events();
    for (s, d, c, log) in outputs {
        stats.merge(&s);
        if let (Some(acc), Some(d)) = (de_stats.as_mut(), d) {
            acc.loads += d.loads;
            acc.bypasses += d.bypasses;
        }
        collector.merge(&c);
        events.extend(log.into_events());
    }
    drop(merge_span);
    debug_assert_eq!(
        stats,
        policy
            .simulate(config, addrs)
            .expect("dm/de/opt run on every kernel"),
        "set-sharded statistics diverged from the serial run"
    );

    report_sharded(policy, config, n_shards, stats);
    if let Some(de_stats) = de_stats {
        println!("  loads {} bypasses {}", de_stats.loads, de_stats.bypasses);
    }
    if let Err(e) = obs.write(&collector, &events) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The fault-isolated sharded path (uninstrumented runs): shards execute
/// under panic containment / retry / soft deadline; a failing shard fails
/// alone and the run reports partial statistics plus a per-cell table.
fn run_sharded_resilient(
    policy: PolicyKind,
    config: CacheConfig,
    addrs: &[u32],
    n_shards: usize,
    jobs: usize,
    resilience: Resilience,
) -> ExitCode {
    let inject_panic = injected_fault("DYNEX_INJECT_PANIC_SHARD");
    let inject_hang = injected_fault("DYNEX_INJECT_HANG_SHARD");
    let items: Arc<Vec<(usize, Vec<u32>)>> = Arc::new(
        shard_by_set(config.geometry(), addrs, n_shards)
            .into_iter()
            .enumerate()
            .collect(),
    );
    let outcome = execute_resilient(items, jobs, resilience, move |(index, shard)| {
        let _shard_span = dynex_obs::span::span("engine.shard-simulate");
        if Some(*index) == inject_panic {
            panic!("injected fault: panic in shard {index}");
        }
        if Some(*index) == inject_hang {
            std::thread::sleep(Duration::from_secs(3600));
        }
        let PolicyRun { stats, de, .. } = policy
            .run(default_kernel(), config, shard)
            .expect("dm/de/opt run on every kernel");
        (stats, de)
    });

    let mut merged = CacheStats::new();
    let mut de_merged: Option<DeStats> = None;
    {
        let _merge_span = dynex_obs::span::span("engine.merge");
        for (stats, de) in outcome.results().iter().flatten() {
            merged.merge(stats);
            if let Some(de) = de {
                let acc = de_merged.get_or_insert_with(DeStats::default);
                acc.loads += de.loads;
                acc.bypasses += de.bypasses;
            }
        }
    }

    if !outcome.has_failures() {
        debug_assert_eq!(
            merged,
            policy
                .simulate(config, addrs)
                .expect("dm/de/opt run on every kernel"),
            "set-sharded statistics diverged from the serial run"
        );
        report_sharded(policy, config, n_shards, merged);
        if let Some(de) = de_merged {
            println!("  loads {} bypasses {}", de.loads, de.bypasses);
        }
        return ExitCode::SUCCESS;
    }

    // Partial results: the merged statistics cover only the surviving
    // shards, so they are labelled as such rather than passed off as the
    // full-trace numbers.
    let counts = outcome.counts();
    eprintln!("sweep summary: {}", outcome.summary());
    if let Some(table) = outcome.failure_table(|i| format!("shard {i}")) {
        eprint!("{table}");
    }
    println!(
        "{} [set-sharded, PARTIAL {}/{} shards] {config}: {} accesses, {} misses, \
         miss rate {:.4}%",
        policy.name(),
        counts.ok,
        n_shards,
        merged.accesses(),
        merged.misses(),
        merged.miss_rate_percent()
    );
    if let Some(de) = de_merged {
        println!("  loads {} bypasses {} (partial)", de.loads, de.bypasses);
    }
    ExitCode::FAILURE
}

/// `--sweep`: simulate the dm/de/opt triple at every listed size in one
/// session. Under [`Kernel::Sweep`] the whole list shares a single trace
/// traversal ([`api::run_triples_sweep`]); under the other kernels each size
/// runs point-by-point. Stdout is byte-identical across kernels; the stderr
/// `sim:` line counts one reference per trace reference per size, so its
/// refs/s figure measures N-configuration throughput (`scripts/bench.sh`
/// parses it).
fn run_size_sweep(
    request: &SimulationRequest,
    loaded: &api::LoadedTrace,
    sizes: &[u32],
) -> ExitCode {
    let mut configs = Vec::with_capacity(sizes.len());
    for &size in sizes {
        match CacheConfig::direct_mapped(size, request.line_bytes) {
            Ok(c) => configs.push(c),
            Err(e) => {
                eprintln!("error: --sweep size {size}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let started = std::time::Instant::now();
    let triples: Vec<Triple> = match default_kernel() {
        Kernel::Sweep => api::run_triples_sweep(&configs, &loaded.addrs),
        kernel => configs
            .iter()
            .map(|&config| api::run_triple(kernel, config, &loaded.addrs))
            .collect(),
    };
    let seconds = started.elapsed().as_secs_f64();
    let refs = loaded.addrs.len() as u64 * configs.len() as u64;
    eprintln!(
        "sim: {refs} references in {seconds:.3}s ({:.0} refs/s)",
        refs as f64 / seconds.max(1e-9)
    );
    for (config, triple) in configs.iter().zip(&triples) {
        println!(
            "{config}: {} refs, dm {} de {} opt {} misses, de reduction {:.2}%",
            triple.dm.accesses(),
            triple.dm.misses(),
            triple.de.misses(),
            triple.opt.misses(),
            triple.de_reduction()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Every session flag funnels into one SimulationRequest: validation and
    // the DYNEX_JOBS/DYNEX_REFS environment overrides live in the request
    // builder, not here. Mode flags (sharding, resilience, observability)
    // stay local — they select *how* the request runs, not *what* it means.
    let mut builder = SimulationRequest::builder();
    let mut path = None;
    let mut saw_size = false;
    let mut shard_sets = false;
    let mut sweep_sizes: Option<Vec<u32>> = None;
    let mut resilience = Resilience::default();
    let mut obs = ObsConfig {
        events_out: None,
        metrics_out: None,
        intervals_out: None,
        window: 1000,
    };

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                let Some(value) = it.next() else {
                    eprintln!("error: --size needs a value (e.g. --size 32K)");
                    return ExitCode::FAILURE;
                };
                builder.size(&value);
                saw_size = true;
            }
            "--line" => {
                let line: u32 = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("error: --line needs a number");
                        return ExitCode::FAILURE;
                    }
                };
                builder.line(line);
            }
            "--policy" | "--org" => {
                builder.policy(&it.next().unwrap_or_default());
            }
            "--kinds" => {
                builder.kinds(&it.next().unwrap_or_default());
            }
            "--kernel" => {
                builder.kernel(&it.next().unwrap_or_default());
            }
            "--sweep" => {
                let Some(value) = it.next() else {
                    eprintln!("error: --sweep needs a size list (e.g. --sweep 1K,2K,4K)");
                    return ExitCode::FAILURE;
                };
                let mut sizes = Vec::new();
                for part in value.split(',') {
                    match parse_size(part) {
                        Some(size) => sizes.push(size),
                        None => {
                            eprintln!("error: --sweep: bad size {part:?} (use bytes, NK, or NM)");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                sweep_sizes = Some(sizes);
            }
            "--jobs" => {
                let jobs: usize = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => v,
                    _ => {
                        eprintln!("error: --jobs needs a positive number");
                        return ExitCode::FAILURE;
                    }
                };
                builder.jobs(jobs);
            }
            "--shard-sets" => shard_sets = true,
            "--job-retries" => {
                resilience.max_retries = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("error: --job-retries needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--job-timeout-ms" => {
                resilience.deadline = match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(v) if v > 0 => Some(Duration::from_millis(v)),
                    _ => {
                        eprintln!("error: --job-timeout-ms needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--lenient" => {
                let max_skipped: u64 = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("error: --lenient needs a max-skipped count");
                        return ExitCode::FAILURE;
                    }
                };
                builder.lenient(max_skipped);
            }
            "--resume" => {
                let Some(value) = it.next() else {
                    eprintln!("error: --resume needs a journal file");
                    return ExitCode::FAILURE;
                };
                builder.resume(value);
            }
            "--events-out" | "--metrics-out" | "--intervals-out" => {
                let Some(value) = it.next() else {
                    eprintln!("error: {arg} needs a file path");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--events-out" => obs.events_out = Some(value),
                    "--metrics-out" => obs.metrics_out = Some(value),
                    _ => obs.intervals_out = Some(value),
                }
            }
            "--interval" => {
                obs.window = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => v,
                    _ => {
                        eprintln!("error: --interval needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--trace-out" => {
                let Some(value) = it.next() else {
                    eprintln!("error: --trace-out needs a file path");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = dynex_obs::span::install_jsonl_path(&value) {
                    eprintln!("error: cannot open --trace-out {value:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        usage();
        return ExitCode::FAILURE;
    };
    if !saw_size {
        eprintln!("error: --size is required (e.g. --size 32K)");
        return ExitCode::FAILURE;
    }
    builder.trace_path(&path);
    let request = match builder.build() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if request.resume.is_some() && (shard_sets || obs.active()) {
        eprintln!(
            "error: --resume checkpoints plain runs only; it combines with \
             neither --shard-sets nor the observability outputs"
        );
        return ExitCode::FAILURE;
    }
    if sweep_sizes.is_some() && (shard_sets || obs.active() || request.resume.is_some()) {
        eprintln!(
            "error: --sweep runs plain multi-size sweeps only; it combines with \
             none of --shard-sets, --resume, or the observability outputs"
        );
        return ExitCode::FAILURE;
    }

    let read_policy = match request.max_skipped {
        Some(max_skipped) => ReadPolicy::Lenient { max_skipped },
        None => ReadPolicy::Strict,
    };
    let (trace, skipped) = match load_trace(&path, read_policy) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = api::filter_trace(&trace, request.kinds, skipped);
    if skipped > 0 {
        let mut stats = TraceStats::from_accesses(trace.iter());
        stats.record_skipped(skipped);
        eprintln!("lenient read: {skipped} corrupt record(s) skipped");
        eprintln!("trace: {stats}");
    }
    eprintln!("{} references selected from {}", loaded.addrs.len(), path);

    // Apply the session knobs (worker count, kernel, resume journal) from
    // the request in one place.
    if let Err(e) = api::install_session(&request) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(sizes) = &sweep_sizes {
        return run_size_sweep(&request, &loaded, sizes);
    }

    if let Some(journal_path) = &request.resume {
        // The --resume path: replay the checkpointed result if present,
        // otherwise simulate and record it (all inside api::run_loaded).
        let response = match api::run_loaded(&request, &loaded) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                dynex_engine::set_global_journal(None);
                return ExitCode::FAILURE;
            }
        };
        if response.cached {
            eprintln!("replayed from journal {} (1 point)", journal_path.display());
        }
        print!("{}", response.render_text());
        dynex_engine::set_global_journal(None); // close before exit
        return ExitCode::SUCCESS;
    }

    let dm_config = match CacheConfig::direct_mapped(request.size_bytes, request.line_bytes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if shard_sets {
        // --jobs (or the resolved session default) doubles as the shard count.
        return run_sharded(
            request.policy,
            dm_config,
            &loaded.addrs,
            request.jobs,
            &obs,
            resilience,
        );
    }

    if !obs.active() {
        // The uninstrumented single run shares api::execute with --resume
        // and the dynex-serve service.
        let started = std::time::Instant::now();
        let response = match api::execute(&request, &loaded) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Simulation-only throughput (trace load/decode excluded), on stderr
        // so stdout stays byte-identical across kernels and machines;
        // scripts/bench.sh parses this line.
        let seconds = started.elapsed().as_secs_f64();
        eprintln!(
            "sim: {} references in {seconds:.3}s ({:.0} refs/s)",
            response.stats.accesses(),
            response.stats.accesses() as f64 / seconds.max(1e-9)
        );
        print!("{}", response.render_text());
        return ExitCode::SUCCESS;
    }

    let addrs = &loaded.addrs;
    let report = |label: String, stats: CacheStats| {
        println!(
            "{label}: {} accesses, {} misses, miss rate {:.4}%",
            stats.accesses(),
            stats.misses(),
            stats.miss_rate_percent()
        );
    };

    // Runs a probed cache, reports its stats, then extracts the
    // `(Collector, EventLog)` probe via `into_probe` and writes the
    // requested output files.
    macro_rules! simulate_observed {
        ($cache:expr) => {{
            let mut cache = $cache;
            let stats = run_addrs(&mut cache, addrs.iter().copied());
            report(cache.label(), stats);
            let (collector, log) = cache.into_probe();
            if let Err(e) = obs.write(&collector, log.events()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }};
    }

    match request.policy {
        PolicyKind::DirectMapped => match default_kernel() {
            Kernel::Batch => {
                let mut probe = obs.probe();
                let stats = batch_dm_probed(dm_config, addrs, &mut probe);
                report(DirectMapped::new(dm_config).label(), stats);
                let (collector, log) = probe;
                if let Err(e) = obs.write(&collector, log.events()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Kernel::Sweep => {
                let mut probes = [obs.probe()];
                let point = SweepPoint::new(dm_config, SweepPolicy::DirectMapped);
                let results = batch_sweep_probed(&[point], addrs, &mut probes);
                report(DirectMapped::new(dm_config).label(), results[0].stats());
                let [(collector, log)] = probes;
                if let Err(e) = obs.write(&collector, log.events()) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Kernel::Reference => {
                simulate_observed!(DirectMapped::with_probe(dm_config, obs.probe()));
            }
        },
        PolicyKind::DynamicExclusion => {
            let (label, stats, de_stats, collector, log) = match default_kernel() {
                Kernel::Batch => {
                    let mut probe = obs.probe();
                    let result = batch_de_probed(dm_config, addrs, &mut probe);
                    let (collector, log) = probe;
                    let de_stats = DeStats {
                        loads: result.loads,
                        bypasses: result.bypasses,
                    };
                    let label = DeCache::new(dm_config).label();
                    (label, result.stats, de_stats, collector, log)
                }
                Kernel::Sweep => {
                    let mut probes = [obs.probe()];
                    let point = SweepPoint::new(dm_config, SweepPolicy::DynamicExclusion);
                    let results = batch_sweep_probed(&[point], addrs, &mut probes);
                    let [(collector, log)] = probes;
                    let result = results[0].de().expect("DE sweep point yields DE result");
                    let de_stats = DeStats {
                        loads: result.loads,
                        bypasses: result.bypasses,
                    };
                    let label = DeCache::new(dm_config).label();
                    (label, result.stats, de_stats, collector, log)
                }
                Kernel::Reference => {
                    let mut cache = DeCache::with_probe(dm_config, obs.probe());
                    let stats = run_addrs(&mut cache, addrs.iter().copied());
                    let label = cache.label();
                    let de_stats = cache.de_stats();
                    let (collector, log) = cache.into_probe();
                    (label, stats, de_stats, collector, log)
                }
            };
            report(label, stats);
            if let Err(e) = obs.write(&collector, log.events()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!("  loads {} bypasses {}", de_stats.loads, de_stats.bypasses);
        }
        PolicyKind::DeLastLine => {
            simulate_observed!(LastLineDeCache::with_store_and_probe(
                dm_config,
                PerfectStore::new(),
                obs.probe()
            ));
        }
        PolicyKind::TwoWay | PolicyKind::FourWay => {
            let config = match request.cache_config() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            simulate_observed!(SetAssociative::with_probe(
                config,
                Replacement::Lru,
                obs.probe()
            ));
        }
        PolicyKind::Victim => {
            simulate_observed!(VictimCache::with_probe(dm_config, 4, obs.probe()));
        }
        PolicyKind::Stream => {
            simulate_observed!(StreamBuffer::with_probe(dm_config, 4, obs.probe()));
        }
        // The oracles and the policy-zoo driver have no probed hot path:
        // they run through the plain request path instead.
        PolicyKind::OptimalDm
        | PolicyKind::OptimalDmLastLine
        | PolicyKind::ExpectedHitCount
        | PolicyKind::BandwidthCost => {
            eprintln!(
                "note: --policy {} has no probed hot path; observability outputs \
                 are not written",
                request.policy.name()
            );
            match api::execute(&request, &loaded) {
                Ok(response) => print!("{}", response.render_text()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
