//! Three-C miss classification (Hill): compulsory / capacity / conflict.
//!
//! Dynamic exclusion attacks *conflict* misses — the misses a direct-mapped
//! cache takes that a fully-associative cache of the same capacity would
//! not. This module implements the classic per-reference classification so
//! experiments can report how large that target actually is per workload:
//!
//! * **compulsory** — first reference to the block, misses in any cache;
//! * **capacity** — the block was seen before, but a fully-associative LRU
//!   cache of equal capacity misses too;
//! * **conflict** — the direct-mapped cache misses where the
//!   fully-associative cache hits: pure placement damage.
//!
//! The classification has a well-known artifact: LRU is not optimal, so the
//! fully-associative reference can miss where the direct-mapped cache
//! *hits* (cyclic sweeps slightly above capacity). Those "anti-conflict"
//! events are counted separately rather than silently folded in.

use crate::line_table::LineTable;
use crate::{CacheConfig, FullyAssociative};

/// Per-category miss counts from [`classify_direct_mapped`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissClassification {
    /// Total references classified.
    pub accesses: u64,
    /// First-touch misses (miss in any cache organization).
    pub compulsory: u64,
    /// Re-reference misses that the equal-capacity fully-associative LRU
    /// cache also takes.
    pub capacity: u64,
    /// Misses the fully-associative cache avoids: the direct-mapped
    /// placement's fault, dynamic exclusion's target.
    pub conflict: u64,
    /// Direct-mapped hits where the fully-associative LRU cache misses
    /// (the classification's LRU artifact, reported for transparency).
    pub anti_conflict: u64,
}

impl MissClassification {
    /// All direct-mapped misses (sum of the three categories).
    pub fn total_misses(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Conflict misses as a fraction of all direct-mapped misses (0 if no
    /// misses).
    pub fn conflict_fraction(&self) -> f64 {
        let total = self.total_misses();
        if total == 0 {
            0.0
        } else {
            self.conflict as f64 / total as f64
        }
    }

    /// Direct-mapped miss rate in percent.
    pub fn miss_rate_percent(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_misses() as f64 / self.accesses as f64 * 100.0
        }
    }
}

/// Classifies every miss a direct-mapped cache of `config` takes on `addrs`.
///
/// Runs the direct-mapped cache and an equal-capacity fully-associative LRU
/// shadow side by side.
///
/// # Examples
///
/// ```
/// use dynex_cache::{classify_direct_mapped, CacheConfig};
///
/// // Two conflicting blocks alternating: all non-cold misses are conflicts.
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let c = classify_direct_mapped(config, addrs.iter().copied());
/// assert_eq!(c.compulsory, 2);
/// assert_eq!(c.conflict, 18);
/// assert_eq!(c.capacity, 0);
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
pub fn classify_direct_mapped<I>(config: CacheConfig, addrs: I) -> MissClassification
where
    I: IntoIterator<Item = u32>,
{
    let geometry = config.geometry();
    let mut dm = crate::DirectMapped::new(config);
    let mut fa = FullyAssociative::new(config.size_bytes(), config.line_bytes())
        .expect("config already validated");
    // One first-touch flag per line.
    let mut seen = LineTable::new(0);
    let mut result = MissClassification::default();

    for addr in addrs {
        use crate::CacheSim;
        result.accesses += 1;
        let line = geometry.line_addr(addr);
        let first_touch = std::mem::replace(seen.slot(line), 1) == 0;
        let dm_miss = dm.access(addr).is_miss();
        let fa_miss = fa.access(addr).is_miss();
        match (dm_miss, fa_miss, first_touch) {
            (true, _, true) => result.compulsory += 1,
            (true, true, false) => result.capacity += 1,
            (true, false, false) => result.conflict += 1,
            (false, true, _) => result.anti_conflict += 1,
            (false, false, _) => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(size: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, 4).unwrap()
    }

    #[test]
    fn cold_misses_are_compulsory() {
        let addrs: Vec<u32> = (0..16).map(|i| i * 4).collect();
        let c = classify_direct_mapped(config(256), addrs);
        assert_eq!(c.compulsory, 16);
        assert_eq!(c.capacity, 0);
        assert_eq!(c.conflict, 0);
        assert_eq!(c.total_misses(), 16);
    }

    #[test]
    fn pairwise_thrash_is_pure_conflict() {
        let addrs: Vec<u32> = (0..40).map(|i| if i % 2 == 0 { 0 } else { 256 }).collect();
        let c = classify_direct_mapped(config(256), addrs);
        assert_eq!(c.compulsory, 2);
        assert_eq!(c.conflict, 38);
        assert_eq!(c.capacity, 0);
        assert!((c.conflict_fraction() - 38.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_cyclic_sweep_is_capacity() {
        // 32 distinct blocks cycled through a 16-line cache: FA-LRU misses
        // everything too.
        let addrs: Vec<u32> = (0..320).map(|i| (i % 32) * 4).collect();
        let c = classify_direct_mapped(config(64), addrs);
        assert_eq!(c.compulsory, 32);
        assert!(c.capacity > 0);
        // Direct-mapped on a pure cyclic sweep also misses everything, and
        // FA-LRU does as well: no conflicts.
        assert_eq!(c.conflict, 0);
        assert_eq!(c.total_misses(), 320);
    }

    #[test]
    fn anti_conflict_artifact_is_visible() {
        // A cyclic sweep of 17 blocks over a 16-line cache: FA-LRU misses
        // all, but direct-mapped hits the blocks that do not share a set.
        let addrs: Vec<u32> = (0..170).map(|i| (i % 17) * 4).collect();
        let c = classify_direct_mapped(config(64), addrs);
        assert!(c.anti_conflict > 0, "LRU pathology should be visible");
    }

    #[test]
    fn identities_hold_on_random_streams() {
        let mut rng = crate::SplitMix64::new(44);
        let addrs: Vec<u32> = (0..5000).map(|_| (rng.below(256) as u32) * 4).collect();
        let c = classify_direct_mapped(config(256), addrs.iter().copied());
        // Total misses equals an independent direct-mapped run.
        use crate::CacheSim;
        let mut dm = crate::DirectMapped::new(config(256));
        let dm_stats = crate::run_addrs(&mut dm, addrs);
        assert_eq!(c.total_misses(), dm_stats.misses());
        assert_eq!(c.accesses, dm_stats.accesses());
        let _ = dm.label();
    }

    #[test]
    fn empty_stream() {
        let c = classify_direct_mapped(config(64), std::iter::empty());
        assert_eq!(c, MissClassification::default());
        assert_eq!(c.miss_rate_percent(), 0.0);
        assert_eq!(c.conflict_fraction(), 0.0);
    }
}
