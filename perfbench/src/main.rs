//! `dynex-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|trace|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct","attempted","failed","metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (`END_TO_END`), measured
//! with tracing off. With `--trace 1` they are the per-layer ones
//! (`per_layer`): the run is split into an untraced half and a traced half,
//! each in its own process, and the traced half reads the program's own
//! spans through an in-memory JSONL writer (see `spans`).
//!
//! Every measurement runs in a child process of this one (the same binary
//! with `--child`): the tracing level only ever rises within a process, and
//! a process per phase gives each workload its own peak RSS. A `--trace 0`
//! run measures in `UNTRACED_PROCESSES` processes and reports medians (the
//! mean, for the resident set). Figure-pass, trace-round and set-up times
//! are scaled to a reference host speed (see `calib`). The
//! harness times calls into each layer's public functions from its own
//! files and adds no spans inside the program.
//!
//! Each workload also checks its outputs (golden figure tables, kernel vs
//! reference simulator, served bodies vs in-process runs); every failed
//! check counts in `failed`, and `correct` is true only when none failed.

mod calib;
mod checks;
mod figures;
mod report;
mod serve;
mod spans;
mod trace;

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{cores, finite, mean, median, Report};
use spans::SpanSink;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["figures", "trace", "serve"];

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("op_ms", "ms"),
    ("fresh_ms", "ms"),
];

/// Per-layer metrics other than the per-figure times, `(name, unit)`.
const LAYERS: [(&str, &str); 54] = [
    ("host.cores", "count"),
    ("host.calib_ms", "ms"),
    ("run.jobs", "count"),
    ("run.senders", "count"),
    ("e2e.failed_ratio", "ratio"),
    ("e2e.figures_s", "s"),
    ("e2e.trace_refs_per_s", "refs/s"),
    ("e2e.serve_hit_p50_ms", "ms"),
    ("e2e.serve_miss_p50_ms", "ms"),
    ("e2e.serve_p99_ms", "ms"),
    ("workload.generate_s", "s"),
    ("trace.write_s", "s"),
    ("trace.read_s", "s"),
    ("trace.filter_decode_s", "s"),
    ("api.load_s", "s"),
    ("api.content_key_s", "s"),
    ("kernel.decode_s", "s"),
    ("kernel.simulate_s", "s"),
    ("kernel.next-use_s", "s"),
    ("kernel.dm.refs_per_s", "refs/s"),
    ("kernel.de.refs_per_s", "refs/s"),
    ("kernel.opt.refs_per_s", "refs/s"),
    ("kernel.ehc.refs_per_s", "refs/s"),
    ("kernel.bwcost.refs_per_s", "refs/s"),
    ("kernel.sweep1.dm.refs_per_s", "refs/s"),
    ("kernel.sweep1.de.refs_per_s", "refs/s"),
    ("kernel.sweep1.opt.refs_per_s", "refs/s"),
    ("kernel.ehc.next-use_s", "s"),
    ("kernel.ehc.simulate_s", "s"),
    ("kernel.ref.ehc.refs_per_s", "refs/s"),
    ("kernel.ref.ehc.next-use_s", "s"),
    ("kernel.ref.ehc.simulate_s", "s"),
    ("engine.attempt_ms", "ms"),
    ("engine.attempts", "count"),
    ("engine.retries", "count"),
    ("serve.accept_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.cache-lookup_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.queue-wait_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.coalesced_hits", "count"),
    ("serve.sims_executed", "count"),
    ("serve.fused_jobs", "count"),
    ("serve.rejected_429", "count"),
    ("serve.hit_ratio", "ratio"),
    ("journal.appends", "count"),
    ("journal.replay_s", "s"),
    ("load.send_lag_max_ms", "ms"),
    ("load.service_p50_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
    ("unattributed_s", "s"),
];

/// Every per-layer metric `(name, unit)`, reported with `--trace 1`: the
/// layer metrics, then one time per figure id. A layer a workload does not
/// cross reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let figure_times = dynex_experiments::figures::ALL_IDS
        .iter()
        .map(|id| (format!("figures.{id}_s"), "s"));
    LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .chain(figure_times)
        .collect()
}

/// Untraced measuring processes per `--trace 0` run, each measuring an
/// equal share of it. Allocator retention and the core a process settles on
/// are fixed early in its life, so each end-to-end metric is the median over
/// several processes.
const UNTRACED_PROCESSES: u32 = 3;

/// Longest a whole invocation may take before its children are killed.
const DEADLINE: Duration = Duration::from_secs(170);

/// One measuring process's inputs.
pub struct Phase {
    /// The workload seed.
    pub seed: u64,
    /// How long to measure.
    pub budget: Duration,
    /// `available_parallelism`, the pool and sender sizing.
    pub cores: usize,
    /// The span aggregator, in a traced phase only.
    pub sink: Option<SpanSink>,
    /// Whether this run reports per-layer metrics (`--trace 1`): the
    /// untraced phase then also times layer calls directly.
    pub layers: bool,
    /// A private scratch directory inside the build directory.
    pub work_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `Some(traced)` in a measuring child process.
    child: Option<bool>,
    budget_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut child, mut budget_ms) = (None, 0);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value {value:?} (0 or 1)")),
                })
            }
            "--child" => child = Some(value == "traced"),
            "--budget-ms" => budget_ms = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} ({WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
        budget_ms,
    })
}

/// Fills in the metrics every traced phase derives from its spans, per
/// unit of work (figure pass, trace round, served request), unless the
/// workload already measured them more precisely.
fn span_metrics(sink: &SpanSink, report: &mut Report) {
    let units = report.get("units").max(1.0);
    let stages = sink.stages();
    let stage = |name: &str| stages.get(name).copied().unwrap_or_default();
    let mut values: Vec<(String, f64)> = vec![
        (
            "engine.attempt_ms".into(),
            stage("engine.attempt").mean_ms(),
        ),
        (
            "engine.attempts".into(),
            stage("engine.attempt").count as f64,
        ),
        ("engine.retries".into(), stage("engine.retry").count as f64),
        (
            "unattributed_s".into(),
            stage("bench.phase").self_us as f64 / 1e6,
        ),
    ];
    for name in ["decode", "simulate", "next-use"] {
        let self_us = stage(&format!("kernel.{name}")).self_us as f64;
        values.push((format!("kernel.{name}_s"), self_us / units / 1e6));
    }
    for name in [
        "accept",
        "parse",
        "cache-lookup",
        "respond",
        "queue-wait",
        "dispatch",
        "simulate",
    ] {
        values.push((format!("serve.{name}_ms"), stage(name).mean_ms()));
    }
    for (name, value) in values {
        report.values.entry(name).or_insert(value);
    }
    report.check(match sink.malformed() {
        0 => Ok(()),
        n => Err(format!("{n} span lines could not be parsed")),
    });
}

/// The measuring process: runs one phase and prints its [`Report`].
fn child(args: &Args, traced: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let work_dir = exe
        .parent()
        .expect("the executable lives in a directory")
        .join("perfbench-work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let phase = Phase {
        seed: args.seed,
        budget: Duration::from_millis(args.budget_ms),
        cores: cores(),
        sink: traced.then(|| SpanSink::install(serve::SERVER_STAGES)),
        layers: args.trace,
        work_dir,
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "figures" => figures::run(&phase, &mut report),
        "trace" => trace::run(&phase, &mut report),
        _ => serve::run(&phase, &mut report),
    }
    if let Some(sink) = &phase.sink {
        span_metrics(sink, &mut report);
    }
    let peak = report::peak_rss_mib();
    report
        .values
        .entry("peak_rss_mb".to_owned())
        .or_insert(peak);
    let _ = std::fs::remove_dir_all(&phase.work_dir);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Runs one measuring child and parses its report, killing it at
/// `deadline`.
fn run_child(
    args: &Args,
    traced: bool,
    budget: Duration,
    deadline: Instant,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--child", if traced { "traced" } else { "untraced" }])
        .args(["--budget-ms", &budget.as_millis().to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.workload == "serve" {
        // The server runs each connection on a thread of its own, and glibc
        // gives threads allocator arenas of their own: how many arenas a
        // run ends up filling, and so its resident set, moved by a fifth or
        // more between runs of the same code. With one arena the resident
        // set is the same in every run.
        command.env("MALLOC_ARENA_MAX", "1");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawning the measuring process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err("the measuring process overran the deadline".to_owned());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for the measuring process: {e}")),
        }
    };
    let out = reader
        .join()
        .expect("stdout reader thread")
        .map_err(|e| format!("reading the measuring process: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("the measuring process exited with {status}"));
    }
    out.lines()
        .last()
        .and_then(Report::from_json)
        .ok_or_else(|| "the measuring process printed no report".to_owned())
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, finite(value))
}

/// The parent process: spawns the phases, derives the metrics, prints the
/// ledger and the result line.
fn parent(args: &Args) -> ExitCode {
    let deadline = Instant::now() + DEADLINE;
    let seconds = Duration::from_secs(args.seconds);
    let phases: Vec<(bool, Duration)> = if args.trace {
        vec![(false, seconds / 2), (true, seconds / 2)]
    } else {
        vec![(false, seconds / UNTRACED_PROCESSES); UNTRACED_PROCESSES as usize]
    };
    let mut reports = Vec::new();
    for &(traced, budget) in &phases {
        match run_child(args, traced, budget, deadline) {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!(
                    "error: {} phase: {e}",
                    if traced { "traced" } else { "untraced" }
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let untraced = &reports[0];
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let ok_ratio = |r: &Report| (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64;

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let traced = &reports[1];
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "host.cores" => cores() as f64,
                    "e2e.failed_ratio" => 1.0 - ok_ratio(untraced),
                    "obs.trace_overhead_frac" => traced.get("op_ms") / untraced.get("op_ms") - 1.0,
                    n if n.starts_with("e2e.") => untraced.get(n),
                    n => traced
                        .values
                        .get(n)
                        .copied()
                        .unwrap_or_else(|| untraced.get(n)),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "ok_ratio" => (attempted - failed) as f64 / attempted.max(1) as f64,
                    // A process's resident set settles on one of a few
                    // levels, depending on how its threads' allocations
                    // fell; the mean over processes moves less than their
                    // median between runs.
                    "peak_rss_mb" => mean(
                        &reports
                            .iter()
                            .map(|r| r.get("peak_rss_mb"))
                            .collect::<Vec<f64>>(),
                    ),
                    n => median(&reports.iter().map(|r| r.get(n)).collect::<Vec<f64>>()),
                };
                (name.to_owned(), value, unit)
            })
            .collect()
    };

    println!(
        "# dynex-perfbench workload={} seed={} seconds={} trace={} cores={} jobs={} senders={} units={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores(),
        untraced.get("run.jobs"),
        untraced.get("run.senders"),
        untraced.get("units"),
    );
    for (name, value) in untraced
        .values
        .iter()
        .filter(|(n, _)| n.starts_with("e2e."))
    {
        println!("#   {name} = {value}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| metric_json(name, *value, unit))
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        failed == 0,
        attempted.max(1),
        failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dynex-perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(traced) => child(&args, traced),
        None => parent(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_obs::json::{self, Json};

    /// `BENCHMARK.json` and this binary must name the same workloads and
    /// metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(list("per_layer"), layers);
    }
}
