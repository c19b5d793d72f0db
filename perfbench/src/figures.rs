//! The `figures` workload: every paper artifact in `figures::ALL_IDS` over
//! one generated ten-profile bundle, on all cores with the default kernel —
//! what `experiments all` does. No trace IO and no HTTP.
//!
//! The ten profiles are the paper's fixed programs, so the seed does not
//! change the inputs here; the other two workloads carry the held-out
//! inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dynex_experiments::{figures, Workloads};
use dynex_obs::span;

use crate::calib::Calibration;
use crate::checks::same_bytes;
use crate::report::{mean, median, reset_peak_rss, setup_due, timed, PeakRss, Report};
use crate::Phase;

/// Reference budget of the golden tables in `results/golden/`.
pub const GOLDEN_REFS: usize = 12_000;

/// Per-profile reference budget of the timed figure passes.
const REFS: usize = 80_000;

/// Workload generations timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Passes every run makes, however short its budget, so the run-to-run
/// table comparison always has something to compare.
const MIN_PASSES: usize = 2;

/// Renders one figure table as CSV bytes.
fn render(id: &str, workloads: &Workloads) -> Result<Vec<u8>, String> {
    let table = figures::run(id, workloads).ok_or_else(|| format!("unknown figure id {id}"))?;
    let mut bytes = Vec::new();
    table
        .write_csv(&mut bytes)
        .map_err(|e| format!("{id}: CSV render failed: {e}"))?;
    Ok(bytes)
}

/// Checks every committed golden table at its reduced budget.
fn check_goldens(report: &mut Report) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/golden");
    let workloads = Workloads::generate(GOLDEN_REFS);
    let mut checked = 0;
    for id in figures::ALL_IDS {
        let Ok(expected) = std::fs::read(format!("{dir}/{id}.csv")) else {
            continue;
        };
        checked += 1;
        report.check(
            render(id, &workloads)
                .and_then(|actual| same_bytes(&format!("golden {id}"), &actual, &expected)),
        );
    }
    report.check(if checked == 0 {
        Err(format!("no golden tables found in {dir}"))
    } else {
        Ok(())
    });
}

/// Runs the workload for the phase's budget.
pub fn run(phase: &Phase, report: &mut Report) {
    let jobs = phase.cores;
    dynex_engine::set_default_jobs(jobs);
    report.set("run.jobs", jobs as f64);
    check_goldens(report);

    let (workloads, seconds) = timed(|| Workloads::generate(REFS));
    let mut setup = vec![seconds];

    // Span names must be 'static; one leaked string per figure id.
    let span_names: Vec<&'static str> = figures::ALL_IDS
        .iter()
        .map(|id| &*Box::leak(format!("figures.{id}").into_boxed_str()))
        .collect();
    let mut first_tables: Vec<Option<Vec<u8>>> = vec![None; figures::ALL_IDS.len()];
    let mut per_id: Vec<Vec<f64>> = vec![Vec::new(); figures::ALL_IDS.len()];
    let mut passes = Vec::new();
    let mut calibration = Calibration::new(jobs);

    let mut rss = PeakRss::start();
    let phase_span = span::span("bench.phase");
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < phase.budget {
        let mut pass = 0.0;
        for (i, id) in figures::ALL_IDS.iter().enumerate() {
            calibration.tick();
            let (outcome, seconds) = timed(|| {
                let _span = span::span(span_names[i]);
                catch_unwind(AssertUnwindSafe(|| figures::run(id, &workloads)))
            });
            pass += seconds;
            per_id[i].push(seconds);
            let table = match outcome {
                Ok(Some(table)) => table,
                Ok(None) => {
                    report.check(Err(format!("{id}: not a figure id")));
                    continue;
                }
                Err(_) => {
                    report.check(Err(format!("{id}: panicked")));
                    continue;
                }
            };
            let mut bytes = Vec::new();
            if let Err(e) = table.write_csv(&mut bytes) {
                report.check(Err(format!("{id}: CSV render failed: {e}")));
                continue;
            }
            report.check(match &first_tables[i] {
                None => {
                    first_tables[i] = Some(bytes);
                    Ok(())
                }
                Some(first) => {
                    same_bytes(&format!("{id} (pass {})", passes.len() + 1), &bytes, first)
                }
            });
        }
        passes.push(pass);
        rss.mark();
        while setup_due(setup.len(), SETUP_REPS, started.elapsed(), phase.budget) {
            let _span = span::span("bench.setup");
            setup.push(timed(|| Workloads::generate(REFS)).1);
            reset_peak_rss();
        }
    }
    drop(phase_span);

    let scale = calibration.scale();
    report.set("setup_s", median(&setup) * scale);
    report.set("workload.generate_s", median(&setup));
    report.set("peak_rss_mb", rss.median());
    report.set("units", passes.len() as f64);
    // A mean, like the scale: both then average the host's speed over the
    // same stretch of time.
    report.set("op_ms", mean(&passes) * 1e3 * scale);
    report.set("fresh_ms", mean(&passes) * 1e3 * scale);
    report.set("host.calib_ms", calibration.mean_ms());
    report.set("e2e.figures_s", median(&passes));
    for (id, times) in figures::ALL_IDS.iter().zip(&per_id) {
        report.set(&format!("figures.{id}_s"), median(times));
    }
}
