//! The `trace` workload: one long seeded phased-application trace, written
//! once as binary `.dxt`, then simulated by each of five policies at
//! 32 KB / 4 B lines as one `api::load` + `api::execute` at one job — what
//! one `simcache` invocation per policy does. Single-threaded: trace IO and
//! the kernels, no pool and no HTTP.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Instant;

use dynex_cache::{Kernel, KindFilter};
use dynex_engine::PolicyKind;
use dynex_experiments::api::{self, LoadedTrace, SimulationRequest, SimulationResponse};
use dynex_obs::span;
use dynex_obs::NoopProbe;
use dynex_trace::io::{read_binary_with, write_binary, ReadPolicy};
use dynex_trace::Trace;
use dynex_workload::AppParams;

use crate::calib::Calibration;
use crate::checks::same_response;
use crate::report::{mean, median, reset_peak_rss, setup_due, timed, PeakRss, Report};
use crate::Phase;

/// References in the trace.
const REFS: usize = 4_000_000;

/// References of the prefix on which every policy is checked against its
/// reference simulator.
const PREFIX_REFS: usize = 100_000;

/// The headline cache: 32 KB of 4-byte lines.
const SIZE: &str = "32K";
const HEADLINE_BYTES: u64 = 32 * 1024;

/// The policies run per round, in order.
const POLICIES: [&str; 5] = ["dm", "de", "opt", "ehc", "bwcost"];

/// Trace generations (and writes) timed per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// The kernel span stages, in the order of a kernel time split.
const KERNEL_STAGES: [&str; 3] = ["kernel.decode", "kernel.simulate", "kernel.next-use"];

/// The policies, first in `POLICIES`, that also run as one-point sweeps.
const SWEEP1: usize = 3;

/// Rounds every run makes, however short its budget.
const MIN_ROUNDS: usize = 2;

/// Builds the request a `simcache <trace> --policy <policy>` run makes.
fn request(path: &std::path::Path, policy: &str, kernel: &str) -> SimulationRequest {
    SimulationRequest::builder()
        .policy(policy)
        .size(SIZE)
        .line(4)
        .kernel(kernel)
        .trace_path(path)
        .jobs(1)
        .build()
        .expect("the trace workload's requests are valid")
}

/// Checks each policy's default kernel against `Kernel::Reference` on a
/// prefix of the trace.
fn check_prefix(trace: &Trace, path: &std::path::Path, report: &mut Report) {
    let prefix: Trace = trace.iter().take(PREFIX_REFS).collect();
    let loaded = api::filter_trace(&prefix, KindFilter::All, 0);
    for policy in POLICIES {
        let fast = api::execute(&request(path, policy, "batch"), &loaded);
        let reference = api::execute(&request(path, policy, "reference"), &loaded);
        report.check(match (fast, reference) {
            (Ok(fast), Ok(reference)) => same_response(
                &format!("{policy} on a {PREFIX_REFS}-reference prefix"),
                &fast,
                &reference,
            ),
            (Err(e), _) | (_, Err(e)) => Err(format!("{policy}: {e}")),
        });
    }
}

/// Records that `actual` equals the first round's response for the policy.
fn check_stable(
    report: &mut Report,
    what: &str,
    actual: Result<SimulationResponse, String>,
    first: &mut Option<SimulationResponse>,
) {
    report.check(actual.and_then(|response| match first {
        None => {
            *first = Some(response);
            Ok(())
        }
        Some(expected) => same_response(what, &response, expected),
    }));
}

/// Runs the workload for the phase's budget.
pub fn run(phase: &Phase, report: &mut Report) {
    report.set("run.jobs", 1.0);
    let path = phase.work_dir.join("app.dxt");

    // One set-up: generate the trace and write it as `.dxt`.
    let set_up = |report: &mut Report| {
        let ((program, trace), generate_s) = timed(|| {
            let program = AppParams::new(phase.seed).build();
            let trace = program.trace(REFS);
            (program, trace)
        });
        let (written, write_s) = timed(|| {
            let mut out = BufWriter::new(File::create(&path)?);
            write_binary(&mut out, &trace).map_err(std::io::Error::other)?;
            out.flush()
        });
        report.check(written.map_err(|e| format!("writing {}: {e}", path.display())));
        report.check(if program.code_bytes() > HEADLINE_BYTES {
            Ok(())
        } else {
            Err(format!(
                "seed {}: code footprint {} B fits the {SIZE} cache",
                phase.seed,
                program.code_bytes()
            ))
        });
        (trace, [generate_s, write_s])
    };
    let (trace, seconds) = set_up(report);
    let mut setup = vec![seconds];

    check_prefix(&trace, &path, report);

    let requests: Vec<SimulationRequest> = POLICIES
        .iter()
        .map(|p| request(&path, p, "batch"))
        .collect();
    let ehc_reference = request(&path, "ehc", "reference");
    let exec_spans: [&'static str; 5] = [
        "bench.execute.dm",
        "bench.execute.de",
        "bench.execute.opt",
        "bench.execute.ehc",
        "bench.execute.bwcost",
    ];

    let config = requests[0]
        .cache_config()
        .expect("the headline geometry is valid");
    let kinds: Vec<PolicyKind> = POLICIES
        .iter()
        .map(|p| PolicyKind::parse(p).expect("the trace workload's policies exist"))
        .collect();
    let refs = REFS as f64;

    let mut rounds = Vec::new();
    let mut calibration = Calibration::new(1);
    let mut loads = Vec::new();
    let mut firsts: Vec<Option<SimulationResponse>> = vec![None; POLICIES.len()];
    // Traced: each execute's kernel self time split by KERNEL_STAGES.
    let mut splits: Vec<Vec<[u64; 3]>> = vec![Vec::new(); POLICIES.len()];
    let mut ehc_ref_splits = Vec::new();
    // Untraced per-layer run: wall times of direct layer calls.
    let (mut reads, mut filters, mut keys) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernels: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    let mut sweeps: Vec<Vec<f64>> = vec![Vec::new(); SWEEP1];
    let mut ehc_ref = Vec::new();
    let kernel_us = || -> [u64; 3] {
        KERNEL_STAGES.map(|name| phase.sink.as_ref().map_or(0, |s| s.stage(name).self_us))
    };
    // Executes `request`; returns the response, the wall seconds and the
    // kernel self time split (zeros when untraced).
    let run = |name: &'static str, request: &SimulationRequest, trace: &LoadedTrace| {
        let before = kernel_us();
        let (response, seconds) = timed(|| {
            let _span = span::span(name);
            api::execute(request, trace).map_err(|e| e.to_string())
        });
        let after = kernel_us();
        (response, seconds, [0, 1, 2].map(|i| after[i] - before[i]))
    };
    // Times one kernel through the policy dispatch and checks its
    // statistics against the round's response for the same policy.
    let kernel = |report: &mut Report,
                  policy: usize,
                  kernel: Kernel,
                  addrs: &[u32],
                  first: Option<&SimulationResponse>| {
        let (stats, seconds) = timed(|| kinds[policy].simulate_kernel(kernel, config, addrs));
        let what = format!("{} on the {kernel} kernel", POLICIES[policy]);
        report.check(match (stats, first) {
            (Ok(stats), Some(first)) if stats == first.stats => Ok(()),
            (Ok(_), _) => Err(format!("{what}: statistics differ from the batch run")),
            (Err(e), _) => Err(format!("{what}: {e}")),
        });
        seconds
    };

    let mut rss = PeakRss::start();
    let phase_span = span::span("bench.phase");
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < phase.budget {
        let mut round = 0.0;
        let mut last_loaded = None;
        for (i, request) in requests.iter().enumerate() {
            calibration.tick();
            let (loaded, load_s) = timed(|| {
                let _span = span::span("bench.api.load");
                api::load(request)
            });
            let loaded = match loaded {
                Ok(loaded) => loaded,
                Err(e) => {
                    report.check(Err(format!("{}: load failed: {e}", POLICIES[i])));
                    continue;
                }
            };
            let (response, exec_s, split) = run(exec_spans[i], request, &loaded);
            round += load_s + exec_s;
            loads.push(load_s);
            splits[i].push(split);
            check_stable(report, POLICIES[i], response, &mut firsts[i]);
            last_loaded = Some(loaded);
        }
        rounds.push(round);
        rss.mark();
        while setup_due(setup.len(), SETUP_REPS, started.elapsed(), phase.budget) {
            let _span = span::span("bench.setup");
            setup.push(set_up(report).1);
            reset_peak_rss();
        }
        let Some(loaded) = last_loaded else {
            continue;
        };
        if phase.sink.is_some() {
            let (response, _, split) = run("bench.execute.ehc-reference", &ehc_reference, &loaded);
            ehc_ref_splits.push(split);
            check_stable(report, "ehc reference vs batch", response, &mut firsts[3]);
            continue;
        }
        if !phase.layers {
            continue;
        }
        // Layer calls timed on their own, outside the round, untraced.
        let (read, read_s) = timed(|| {
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            read_binary_with(&bytes[..], ReadPolicy::Strict, NoopProbe)
                .map(|(trace, _)| trace)
                .map_err(|e| e.to_string())
        });
        reads.push(read_s);
        match read {
            Ok(read) => filters.push(timed(|| api::filter_trace(&read, KindFilter::All, 0)).1),
            Err(e) => report.check(Err(format!("reading {}: {e}", path.display()))),
        }
        keys.push(timed(|| requests[0].content_key(&loaded.addrs)).1);
        for (i, times) in kernels.iter_mut().enumerate() {
            times.push(kernel(
                report,
                i,
                Kernel::Batch,
                &loaded.addrs,
                firsts[i].as_ref(),
            ));
        }
        for (i, times) in sweeps.iter_mut().enumerate() {
            times.push(kernel(
                report,
                i,
                Kernel::Sweep,
                &loaded.addrs,
                firsts[i].as_ref(),
            ));
        }
        ehc_ref.push(kernel(
            report,
            3,
            Kernel::Reference,
            &loaded.addrs,
            firsts[3].as_ref(),
        ));
    }
    drop(phase_span);

    let column = |i: usize| setup.iter().map(|s: &[f64; 2]| s[i]).collect::<Vec<f64>>();
    let totals: Vec<f64> = setup.iter().map(|s| s[0] + s[1]).collect();
    let scale = calibration.scale();
    report.set("setup_s", median(&totals) * scale);
    report.set("workload.generate_s", median(&column(0)));
    report.set("trace.write_s", median(&column(1)));
    report.set("peak_rss_mb", rss.median());
    let round = median(&rounds);
    report.set("units", rounds.len() as f64);
    // A mean, like the scale: both then average the host's speed over the
    // same stretch of time.
    report.set("op_ms", mean(&rounds) * 1e3 * scale);
    report.set("fresh_ms", mean(&rounds) * 1e3 * scale);
    report.set("host.calib_ms", calibration.mean_ms());
    report.set("e2e.trace_refs_per_s", refs * POLICIES.len() as f64 / round);
    report.set("api.load_s", median(&loads));
    if phase.layers && phase.sink.is_none() {
        report.set("trace.read_s", median(&reads));
        report.set("trace.filter_decode_s", median(&filters));
        report.set("api.content_key_s", median(&keys));
        for (policy, times) in POLICIES.iter().zip(&kernels) {
            report.set(&format!("kernel.{policy}.refs_per_s"), refs / median(times));
        }
        for (policy, times) in POLICIES.iter().zip(&sweeps) {
            report.set(
                &format!("kernel.sweep1.{policy}.refs_per_s"),
                refs / median(times),
            );
        }
        report.set("kernel.ref.ehc.refs_per_s", refs / median(&ehc_ref));
    }
    if phase.sink.is_none() {
        return;
    }
    // Kernel self time per round, by stage, and EHC's oracle/simulate split
    // on its batch and reference kernels.
    for (i, name) in KERNEL_STAGES.iter().enumerate() {
        let total: u64 = splits.iter().flatten().map(|split| split[i]).sum();
        report.set(
            &format!("{name}_s"),
            total as f64 / rounds.len() as f64 / 1e6,
        );
    }
    let stage_s = |samples: &[[u64; 3]], stage: usize| {
        let values: Vec<f64> = samples
            .iter()
            .map(|split| split[stage] as f64 / 1e6)
            .collect();
        median(&values)
    };
    for (prefix, samples) in [
        ("kernel.ehc", &splits[3]),
        ("kernel.ref.ehc", &ehc_ref_splits),
    ] {
        report.set(&format!("{prefix}.next-use_s"), stage_s(samples, 2));
        report.set(&format!("{prefix}.simulate_s"), stage_s(samples, 1));
    }
}
