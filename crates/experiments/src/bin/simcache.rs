//! `simcache` — run any cache organization over a trace file.
//!
//! ```text
//! simcache <trace.dxt|trace.txt> --size 32K --line 4 \
//!          [--policy dm|de|de-lastline|opt|opt-lastline|ehc|bwcost|2way|4way|victim|stream] \
//!          [--kinds all|instr|data] \
//!          [--kernel reference|batch|sweep] [--sweep 1K,2K,4K,...] \
//!          [--jobs N] [--lenient N] [--resume journal.jsonl] \
//!          [--events-out e.jsonl] [--metrics-out m.json] \
//!          [--intervals-out i.csv] [--interval N]
//! ```
//!
//! Reads a `dynex-trace` file (binary `.dxt` or the text format, detected by
//! the magic), simulates, and prints hit/miss statistics.
//!
//! `--policy` selects a member of the replacement-policy zoo (`--org` is
//! the legacy alias). `--kernel` selects between the reference simulators
//! and the fast path, which `batch` and `sweep` both name (default
//! `batch`): `dm`, `de`, `opt` and their last-line variants run as a
//! one-point sweep, `ehc` and `bwcost` run their chunked kernels, and the
//! `2way`/`4way`/`victim`/`stream` organizations always run their reference
//! simulators. Plain, observed and `--sweep` runs all go through the
//! engine's one dispatch (`dynex_engine::run_jobs`) under the requested
//! kernel. Every policy runs on every kernel, and all combinations produce
//! bit-identical statistics, exclusion counters, and observability output —
//! including under `--resume` (journal keys do not encode the kernel, so a
//! run checkpointed under one kernel replays under any other).
//!
//! `--sweep 1K,2K,4K,...` simulates the full dm/de/opt triple at *every*
//! listed size in one session (duplicate sizes are allowed and keep
//! independent state). On the fast path the whole list rides a single
//! trace traversal; under `reference` each size runs
//! point-by-point. Stdout (one line per size, in list order) is
//! byte-identical across kernels; stderr reports aggregate throughput where
//! one "reference" is one trace reference carried through one size's triple
//! — this is the N-configuration scaling probe `scripts/bench.sh` uses.
//! Plain runs only: `--sweep` combines with neither `--resume` nor the
//! observability outputs.
//!
//! `--lenient N` tolerates up to `N` corrupt records in the trace: bad
//! packed words / malformed text lines are skipped and counted (reported via
//! trace statistics and the observability `trace-skip` event) instead of
//! aborting the run; the read still fails fast once the budget is exceeded.
//!
//! `--resume journal.jsonl` checkpoints the run's final statistics into an
//! append-only journal keyed by a content hash of the organization,
//! configuration, and trace; re-running with the same journal replays the
//! result without simulating, byte-identical. Plain runs only (it does not
//! combine with the observability outputs).
//!
//! Any of the `--*-out` flags attaches a probe to the simulated cache:
//! `--events-out` streams every [`dynex_obs::Event`] as JSONL,
//! `--metrics-out` writes the aggregated counter/histogram registry (plus
//! the interval series) as JSON, and `--intervals-out` writes the per-window
//! miss rates as CSV. `--interval` sets the window size in accesses
//! (default 1000). Without these flags the run is completely
//! uninstrumented — the probe type monomorphizes to a no-op.
//!
//! Any other argument that starts with `--` is rejected as an unknown flag.

use std::process::ExitCode;

use dynex_cache::CacheConfig;
use dynex_engine::{run_jobs, Job, PolicyKind};
use dynex_experiments::api::{self, parse_size, SimulationRequest, SimulationResponse};
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
         [--jobs N] [--lenient <max-skipped>] [--resume <journal.jsonl>] \
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

/// `--sweep`: simulate the dm/de/opt triple at every listed size in one
/// session ([`api::run_triples`]). On the fast path the whole list shares a
/// single trace traversal; under `--kernel reference` each size runs
/// point-by-point. Stdout is byte-identical across kernels; the stderr
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
    let triples: Vec<Triple> = api::run_triples(request.kernel, &configs, &loaded.addrs);
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
    // builder, not here. Mode flags (sweep, observability)
    // stay local — they select *how* the request runs, not *what* it means.
    let mut builder = SimulationRequest::builder();
    let mut path = None;
    let mut saw_size = false;
    let mut sweep_sizes: Option<Vec<u32>> = None;
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
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other:?}");
                return ExitCode::FAILURE;
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
    if request.resume.is_some() && obs.active() {
        eprintln!(
            "error: --resume checkpoints plain runs only; it does not combine \
             with the observability outputs"
        );
        return ExitCode::FAILURE;
    }
    if sweep_sizes.is_some() && (obs.active() || request.resume.is_some()) {
        eprintln!(
            "error: --sweep runs plain multi-size sweeps only; it combines with \
             neither --resume nor the observability outputs"
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

    // The observed run: the same engine dispatch as the plain run, with one
    // `(Collector, EventLog)` probe attached to the job.
    let config = match request.cache_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The oracles and the policy-zoo driver emit no events.
    let silent = matches!(
        request.policy,
        PolicyKind::OptimalDm
            | PolicyKind::OptimalDmLastLine
            | PolicyKind::ExpectedHitCount
            | PolicyKind::BandwidthCost
    );
    if silent {
        eprintln!(
            "note: --policy {} has no probed hot path; observability outputs \
             are not written",
            request.policy.name()
        );
    }
    let mut probes = [obs.probe()];
    let job = Job::new(config, request.policy);
    let (stats, de) = run_jobs(request.kernel, &[job], &loaded.addrs, &mut probes)[0];
    // `render_text` prints neither the content key nor the cached flag.
    let response = SimulationResponse {
        label: request.policy.label(config),
        stats,
        de,
        key: String::new(),
        cached: false,
    };
    print!("{}", response.render_text());
    let [(collector, log)] = probes;
    if !silent {
        if let Err(e) = obs.write(&collector, log.events()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
