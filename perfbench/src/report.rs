//! What one measurement process reports back: operation counts, named
//! values, and the small statistics helpers every workload shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dynex_obs::json::{self, Json};

/// The outcome of one workload phase, serialized as one JSON line on the
/// measuring process's standard output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Checked operations attempted (figure tables, policy runs, requests,
    /// output comparisons).
    pub attempted: u64,
    /// Of those, how many failed: a panic, a wrong output, a non-200
    /// status, or a transport error.
    pub failed: u64,
    /// Named measurements (metric names, or inputs to them).
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Records one checked operation; a failure is logged to stderr.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = ok {
            self.failed += 1;
            eprintln!("check failed: {message}");
        }
    }

    /// Sets a named value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// A named value, or 0 when the phase did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// One JSON object: `{"attempted":…,"failed":…,"values":{…}}`.
    pub fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(name, value)| format!("\"{}\":{}", json::escape(name), finite(*value)))
            .collect();
        format!(
            r#"{{"attempted":{},"failed":{},"values":{{{}}}}}"#,
            self.attempted,
            self.failed,
            values.join(",")
        )
    }

    /// Parses [`Report::to_json`]; `None` on any shape mismatch.
    pub fn from_json(text: &str) -> Option<Report> {
        let value = json::parse(text).ok()?;
        let Some(Json::Obj(map)) = value.get("values") else {
            return None;
        };
        let mut values = BTreeMap::new();
        for (name, v) in map {
            values.insert(name.clone(), v.as_f64()?);
        }
        Some(Report {
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            values,
        })
    }
}

/// Renders a number for JSON; a non-finite value (a bug upstream) becomes 0
/// rather than an unparseable token.
pub fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// closest ranks — exact on the raw samples, no histogram bucketing. 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether the next of `reps` set-up repetitions is due `elapsed` into a
/// run of `budget`, having made `done`: repetitions are spread evenly over
/// the run so they sample the same machine conditions as the measurement.
pub fn setup_due(done: usize, reps: usize, elapsed: Duration, budget: Duration) -> bool {
    done < reps && elapsed.as_secs_f64() >= budget.as_secs_f64() * done as f64 / reps as f64
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// This process's peak resident set (`VmHWM`) in MiB, from
/// `/proc/self/status`; 0 where that file is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident memory per window of work.
///
/// Each [`PeakRss::mark`] records the process's peak resident set since
/// the previous mark and resets the kernel's high-water mark, so a run
/// reports the median window peak instead of a single all-time maximum
/// that depends on which threads happened to allocate at the same moment.
#[derive(Debug, Default)]
pub struct PeakRss {
    peaks: Vec<f64>,
}

impl PeakRss {
    /// Starts the first window.
    pub fn start() -> PeakRss {
        reset_peak_rss();
        PeakRss::default()
    }

    /// Closes the current window and starts the next.
    pub fn mark(&mut self) {
        self.peaks.push(peak_rss_mib());
        reset_peak_rss();
    }

    /// The median window peak in MiB (the all-time peak if no window
    /// closed).
    pub fn median(&self) -> f64 {
        if self.peaks.is_empty() {
            peak_rss_mib()
        } else {
            median(&self.peaks)
        }
    }
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` mode 5); a no-op where that file is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Returns the heap memory this process has freed to the system (glibc's
/// `malloc_trim`), so a later peak resident set counts live memory only.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a byte count and only touches the
    // allocator's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

/// The machine's usable core count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&values), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = Report::default();
        report.check(Ok(()));
        report.check(Err("expected failure".to_owned()));
        report.set("op_ms", 1.25);
        report.set("kernel.next-use_s", 0.000125);
        let back = Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
        assert_eq!(back.attempted, 2);
        assert_eq!(back.failed, 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
