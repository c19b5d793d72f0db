//! Hit/miss accounting shared by all simulators.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::AccessOutcome;

/// Hit/miss counters and derived miss-rate metrics.
///
/// # Examples
///
/// ```
/// use dynex_cache::{AccessOutcome, CacheStats};
///
/// let mut stats = CacheStats::new();
/// stats.record(AccessOutcome::Miss);
/// stats.record(AccessOutcome::Hit);
/// assert_eq!(stats.miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    accesses: u64,
    misses: u64,
    fills: u64,
    writebacks: u64,
    probes: u64,
}

impl CacheStats {
    /// Fresh, all-zero counters.
    pub fn new() -> CacheStats {
        CacheStats::default()
    }

    /// Reconstructs counters recorded elsewhere (sweep-journal replay).
    ///
    /// The bandwidth-cost counters start at zero — exactly what every
    /// pre-existing journal record and hit/miss-only kernel produces, so
    /// replayed results stay bit-identical to fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `misses > accesses`.
    pub fn from_counts(accesses: u64, misses: u64) -> CacheStats {
        assert!(
            misses <= accesses,
            "misses ({misses}) cannot exceed accesses ({accesses})"
        );
        CacheStats {
            accesses,
            misses,
            ..CacheStats::default()
        }
    }

    /// [`CacheStats::from_counts`] plus the bandwidth-cost counters, for
    /// kernels and journal replays that account cache-side traffic.
    ///
    /// # Panics
    ///
    /// Panics if `misses > accesses`.
    pub fn from_traffic_counts(
        accesses: u64,
        misses: u64,
        fills: u64,
        writebacks: u64,
        probes: u64,
    ) -> CacheStats {
        let mut stats = CacheStats::from_counts(accesses, misses);
        stats.fills = fills;
        stats.writebacks = writebacks;
        stats.probes = probes;
        stats
    }

    /// Records one access outcome.
    pub fn record(&mut self, outcome: AccessOutcome) {
        self.accesses += 1;
        if outcome.is_miss() {
            self.misses += 1;
        }
    }

    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses that hit.
    pub fn hits(&self) -> u64 {
        self.accesses - self.misses
    }

    /// Misses that installed (filled) a line — each one moves a line of
    /// data into the cache. Zero for hit/miss-only accounting.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Fills that displaced a valid resident line. Address traces carry no
    /// dirty information, so the accounting assumes a writeback cache in
    /// which every displaced valid line costs one transfer — an upper bound
    /// that is the same for every policy being compared.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Tag probes issued against the cache (one per access for every policy
    /// in the zoo today; counted separately so probe-filtering policies can
    /// report real savings). Zero for hit/miss-only accounting.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Bandwidth-cost summary in line-sized transfer units: the sum of
    /// probes, fills, and writebacks — the cache-side traffic metric of the
    /// bandwidth-aware DRAM-cache literature ("To Update or Not To
    /// Update?", arXiv 1907.02167). Lower is better; bypassing a miss saves
    /// a fill (and a potential writeback) at the cost of re-fetching on the
    /// next miss.
    pub fn bandwidth_transfers(&self) -> u64 {
        self.probes + self.fills + self.writebacks
    }

    /// Bandwidth transfers per thousand accesses — the normalized form the
    /// bandwidth figures tabulate; 0 for an empty run.
    pub fn bandwidth_per_kiloref(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.bandwidth_transfers() as f64 * 1000.0 / self.accesses as f64
        }
    }

    /// Miss rate in `[0, 1]`; 0 for an empty run.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Miss rate as a percentage, the unit the paper's figures use.
    pub fn miss_rate_percent(&self) -> f64 {
        self.miss_rate() * 100.0
    }

    /// Folds another counter set into this one (shard/job merging).
    ///
    /// Equivalent to `*self += other`; provided as a named method so that
    /// every mergeable result type across the workspace (`CacheStats`,
    /// `EventCounts`, `MetricsRegistry`, `IntervalSeries`) exposes the same
    /// verb for the sweep engine to call.
    pub fn merge(&mut self, other: &CacheStats) {
        *self += *other;
    }

    /// Percentage reduction of this miss rate relative to `baseline`
    /// (positive = fewer misses than the baseline), the metric of the paper's
    /// Figures 5, 9 and 12.
    ///
    /// Returns 0 when the baseline had no misses.
    pub fn percent_reduction_vs(&self, baseline: &CacheStats) -> f64 {
        let base = baseline.miss_rate();
        if base == 0.0 {
            0.0
        } else {
            (base - self.miss_rate()) / base * 100.0
        }
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + rhs.accesses,
            misses: self.misses + rhs.misses,
            fills: self.fills + rhs.fills,
            writebacks: self.writebacks + rhs.writebacks,
            probes: self.probes + rhs.probes,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            self.miss_rate_percent()
        )
    }
}

/// Dynamic-exclusion-specific counters, beyond hit/miss accounting.
///
/// Reported by the DE simulators of `dynex-core` and by the DE points of
/// [`crate::batch_sweep`] (a last-line point counts one load or bypass per
/// line run).
///
/// ```
/// use dynex_cache::{batch_sweep, CacheConfig, SweepPoint, SweepPolicy};
///
/// // (a b)^10 on one line: a settles in, b bypasses.
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let point = SweepPoint::new(config, SweepPolicy::DynamicExclusion);
/// let (stats, de) = batch_sweep(&[point], &addrs)[0];
/// let de = de.expect("a DE point reports DE counters");
/// assert_eq!(stats.misses(), 11);
/// assert_eq!(de.bypasses, 10);
/// assert_eq!(de.loads + de.bypasses, stats.misses());
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeStats {
    /// Misses that installed the referenced block.
    pub loads: u64,
    /// Misses that bypassed the cache (block passed straight to the CPU).
    pub bypasses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64) -> CacheStats {
        let mut s = CacheStats::new();
        for _ in 0..hits {
            s.record(AccessOutcome::Hit);
        }
        for _ in 0..misses {
            s.record(AccessOutcome::Miss);
        }
        s
    }

    #[test]
    fn counting() {
        let s = stats(3, 1);
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.miss_rate(), 0.25);
        assert_eq!(s.miss_rate_percent(), 25.0);
    }

    #[test]
    fn empty_run_has_zero_miss_rate() {
        assert_eq!(CacheStats::new().miss_rate(), 0.0);
    }

    #[test]
    fn from_counts_round_trips() {
        let s = stats(3, 2);
        assert_eq!(CacheStats::from_counts(s.accesses(), s.misses()), s);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn from_counts_rejects_impossible_counters() {
        let _ = CacheStats::from_counts(1, 2);
    }

    #[test]
    fn percent_reduction() {
        let baseline = stats(80, 20); // 20%
        let improved = stats(90, 10); // 10%
        assert!((improved.percent_reduction_vs(&baseline) - 50.0).abs() < 1e-9);
        // Worse than baseline gives a negative reduction.
        let worse = stats(60, 40);
        assert!(worse.percent_reduction_vs(&baseline) < 0.0);
        // Perfect baseline: reduction defined as 0.
        assert_eq!(stats(1, 1).percent_reduction_vs(&stats(5, 0)), 0.0);
    }

    #[test]
    fn addition_accumulates() {
        let mut a = stats(2, 1);
        a += stats(3, 4);
        assert_eq!(a, stats(5, 5));
        assert_eq!((stats(1, 0) + stats(0, 1)).accesses(), 2);
    }

    #[test]
    fn merge_matches_add_assign() {
        let mut a = stats(2, 1);
        a.merge(&stats(3, 4));
        assert_eq!(a, stats(5, 5));
        // Merging a zero value is the identity.
        let before = a;
        a.merge(&CacheStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn display_shows_percentage() {
        assert_eq!(stats(1, 1).to_string(), "2 accesses, 1 misses (50.00%)");
    }

    #[test]
    fn traffic_counts_round_trip_and_sum() {
        let s = CacheStats::from_traffic_counts(1000, 100, 60, 40, 1000);
        assert_eq!(s.fills(), 60);
        assert_eq!(s.writebacks(), 40);
        assert_eq!(s.probes(), 1000);
        assert_eq!(s.bandwidth_transfers(), 1100);
        assert!((s.bandwidth_per_kiloref() - 1100.0).abs() < 1e-9);
        let doubled = s + s;
        assert_eq!(doubled.fills(), 120);
        assert_eq!(doubled.writebacks(), 80);
        assert_eq!(doubled.probes(), 2000);
        // Hit/miss-only accounting keeps the traffic counters at zero, so
        // legacy journal replays compare equal to fresh legacy runs.
        assert_eq!(
            CacheStats::from_counts(1000, 100),
            CacheStats::from_traffic_counts(1000, 100, 0, 0, 0)
        );
        assert_ne!(s, CacheStats::from_counts(1000, 100));
        assert_eq!(CacheStats::new().bandwidth_per_kiloref(), 0.0);
    }
}
