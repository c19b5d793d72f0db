//! `experiments` — regenerate the tables and figures of McFarling's ISCA '92
//! dynamic-exclusion paper.
//!
//! ```text
//! experiments [--refs N] [--jobs N] [--kernel reference|batch|sweep] [--out DIR]
//!             [--resume FILE] [--trace-out FILE] <id>... | all | list
//! ```
//!
//! `--refs` sets the per-benchmark reference budget (default 4,000,000, or
//! the `DYNEX_REFS` environment variable); `--jobs` sets the worker count
//! for the sweep engine (default: the `DYNEX_JOBS` environment variable, or
//! all available cores — results are bit-identical for any value);
//! `--kernel` selects the reference simulators or the fast path, which
//! `batch` and `sweep` both name — on the fast path every journaled figure
//! sweep groups its points by trace and carries each group through a single
//! traversal (default `batch`; output is bit-identical for any choice);
//! `--out` writes one CSV per experiment into the directory; `--resume` checkpoints
//! every completed sweep point into an append-only journal and replays it on
//! the next run, so an interrupted sweep picks up where it left off and
//! produces byte-identical output. Ids: see `experiments list`.
//!
//! All session flags build one [`dynex_experiments::api::SimulationRequest`]
//! — validation, environment overrides, and journal installation live in
//! the request API, not here.
//!
//! Experiments are fault-isolated: a panic inside one id fails that id only;
//! the remaining ids still run and the exit status is nonzero only when
//! failures remain.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dynex_experiments::api::{self, SimulationRequest};
use dynex_experiments::{figures, Workloads};

struct Options {
    request: SimulationRequest,
    out: Option<PathBuf>,
    ids: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut builder = SimulationRequest::builder();
    let mut out = None;
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--refs" => {
                let value = args.next().ok_or("--refs needs a value")?;
                let refs: usize = value
                    .parse()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or(format!("bad --refs value {value:?} (positive integer)"))?;
                builder.refs(refs);
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                let jobs: usize = value
                    .parse()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or(format!("bad --jobs value {value:?}"))?;
                builder.jobs(jobs);
            }
            "--kernel" => {
                let value = args.next().ok_or("--kernel needs a value")?;
                builder.kernel(&value);
            }
            "--out" => {
                let value = args.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(value));
            }
            "--resume" => {
                let value = args.next().ok_or("--resume needs a journal file")?;
                builder.resume(value);
            }
            "--trace-out" => {
                let value = args.next().ok_or("--trace-out needs a file path")?;
                dynex_obs::span::install_jsonl_path(&value)
                    .map_err(|e| format!("cannot open --trace-out {value:?}: {e}"))?;
            }
            "--help" | "-h" => {
                ids.push("help".to_owned());
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        ids.push("help".to_owned());
    }
    // One validation pass for everything, including DYNEX_JOBS/DYNEX_REFS —
    // the builder is the workspace's single env-override path, and a typo'd
    // variable fails loudly even for `list`.
    let request = builder.build().map_err(|e| e.to_string())?;
    Ok(Options { request, out, ids })
}

fn print_help() {
    println!(
        "usage: experiments [--refs N] [--jobs N] [--kernel reference|batch|sweep] [--out DIR] \
         [--resume FILE] [--trace-out FILE] <id>... | all | list"
    );
    println!();
    println!("  --kernel K     simulation kernel (default batch); all three kernels produce");
    println!("                 bit-identical results, batch and sweep both name the fast path");
    println!("  --resume FILE  checkpoint completed sweep points into FILE (JSONL)");
    println!("                 and replay them on the next run with the same FILE");
    println!("  --trace-out FILE  stream closed tracing spans into FILE (JSONL)");
    println!();
    println!("experiment ids:");
    for id in figures::ALL_IDS {
        println!("  {id}");
    }
    println!();
    println!("see DESIGN.md for the paper artifact each id reproduces.");
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if options.ids.iter().any(|i| i == "help") {
        print_help();
        return ExitCode::SUCCESS;
    }
    if options.ids.iter().any(|i| i == "list") {
        for id in figures::ALL_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let ids: Vec<String> = if options.ids.iter().any(|i| i == "all") {
        figures::ALL_IDS.iter().map(|&s| s.to_owned()).collect()
    } else {
        options.ids.clone()
    };

    for id in &ids {
        if !figures::ALL_IDS.contains(&id.as_str()) {
            eprintln!("error: unknown experiment {id:?} (try `experiments list`)");
            return ExitCode::FAILURE;
        }
    }

    // Install the session-wide knobs (worker count, kernel, resume journal)
    // from the request in one place.
    let session = match api::install_session(&options.request) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sweep engine: {} worker(s), {} kernel",
        session.jobs, session.kernel
    );
    if let Some(journal) = &session.journal {
        eprintln!(
            "resume journal {}: {} checkpointed point(s) loaded{}",
            journal.path.display(),
            journal.len,
            if journal.dropped_lines > 0 {
                format!(" ({} torn line(s) dropped)", journal.dropped_lines)
            } else {
                String::new()
            }
        );
    }

    eprintln!(
        "generating {} references per benchmark...",
        options.request.refs
    );
    let started = Instant::now();
    let workloads = Workloads::generate(options.request.refs);
    eprintln!(
        "workloads ready in {:.1}s\n",
        started.elapsed().as_secs_f64()
    );

    if let Some(dir) = &options.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Fault isolation: one experiment panicking must not take down the ids
    // after it. Failures are collected and summarized; partial results
    // (every id that did complete) are still printed and saved.
    let mut failed: Vec<(String, String)> = Vec::new();
    let mut completed = 0usize;
    for id in &ids {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            figures::run(id, &workloads).expect("ids validated above")
        }));
        let table = match outcome {
            Ok(table) => table,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned());
                eprintln!("[{id} FAILED: {message}]\n");
                failed.push((id.clone(), message));
                continue;
            }
        };
        println!("{table}");
        eprintln!("[{id} in {:.1}s]\n", started.elapsed().as_secs_f64());
        completed += 1;
        if let Some(dir) = &options.out {
            let path = dir.join(format!("{id}.csv"));
            if let Err(e) = table.save_csv(&path) {
                eprintln!("error: cannot write {}: {e}", path.display());
                failed.push((id.clone(), format!("save_csv: {e}")));
            }
        }
    }

    if options.request.resume.is_some() {
        let replayed = dynex_engine::with_global_journal(|j| (j.replayed(), j.len()));
        if let Some((replayed, total)) = replayed {
            eprintln!("resume journal: {replayed} point(s) replayed, {total} checkpointed");
        }
        dynex_engine::set_global_journal(None); // close before exit
    }

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("summary: {} ok | {} failed", completed, failed.len());
        for (id, message) in &failed {
            eprintln!("  {id}: {message}");
        }
        ExitCode::FAILURE
    }
}
