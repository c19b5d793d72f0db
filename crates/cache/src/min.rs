//! Belady's MIN: the optimal fully-associative cache (offline).
//!
//! The paper cites Belady \[Be166\] as the theoretical upper bound every
//! replacement policy is measured against. This module implements MIN with
//! bypass for a fully-associative cache: on a miss with a full cache, the
//! block whose next use is furthest away — *including the incoming block* —
//! is the one left out. It is the conflict-free, policy-free reference:
//! no cache of equal capacity, under any placement or replacement scheme,
//! misses less.
//!
//! Used by [`crate::classify_direct_mapped_optimal`] to classify misses
//! without the LRU artifact of the classic three-C taxonomy.

use std::collections::{BTreeSet, HashMap};

use crate::{kernel, AccessOutcome, CacheStats, ConfigError};

const NEVER: u64 = u64::MAX;

/// Offline simulator for the optimal fully-associative cache (MIN with
/// bypass).
///
/// # Examples
///
/// ```
/// use dynex_cache::OptimalFullyAssociative;
///
/// // Two blocks, one line: keep the one that is re-referenced.
/// let stats = OptimalFullyAssociative::simulate(1, 4, [0u32, 64, 0, 64, 0])?;
/// assert_eq!(stats.misses(), 3); // 0 kept; 64 bypassed twice
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OptimalFullyAssociative;

impl OptimalFullyAssociative {
    /// Simulates MIN over byte addresses for a cache of `capacity_lines`
    /// lines of `line_bytes` each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] if either parameter is zero and
    /// [`ConfigError::LineTooSmall`] for sub-word lines.
    pub fn simulate<I>(
        capacity_lines: usize,
        line_bytes: u32,
        addrs: I,
    ) -> Result<CacheStats, ConfigError>
    where
        I: IntoIterator<Item = u32>,
    {
        let outcomes = OptimalFullyAssociative::outcomes(capacity_lines, line_bytes, addrs)?;
        let mut stats = CacheStats::new();
        for outcome in outcomes {
            stats.record(outcome);
        }
        Ok(stats)
    }

    /// Like [`OptimalFullyAssociative::simulate`], but returns the
    /// per-reference outcomes (used by the optimal miss classification).
    ///
    /// # Errors
    ///
    /// Same as [`OptimalFullyAssociative::simulate`].
    ///
    /// # Panics
    ///
    /// Panics if the trace has `u32::MAX` or more references (positions
    /// are 32-bit).
    pub fn outcomes<I>(
        capacity_lines: usize,
        line_bytes: u32,
        addrs: I,
    ) -> Result<Vec<AccessOutcome>, ConfigError>
    where
        I: IntoIterator<Item = u32>,
    {
        if capacity_lines == 0 || line_bytes == 0 {
            return Err(ConfigError::Zero);
        }
        if line_bytes < 4 {
            return Err(ConfigError::LineTooSmall { line_bytes });
        }
        let shift = line_bytes.trailing_zeros();
        let addrs: Vec<u32> = addrs.into_iter().collect();

        // next[i]: position of the next reference to the line of addrs[i]
        // (NEVER if none).
        let next: Vec<u64> = kernel::next_use(&addrs, shift)
            .into_iter()
            .map(|j| if j == kernel::NEVER { NEVER } else { j as u64 })
            .collect();
        let lines = addrs.iter().map(|&a| a >> shift);

        // Resident set, ordered by next use (ties impossible: positions are
        // unique; NEVER ties broken by the line id).
        let mut by_next_use: BTreeSet<(u64, u32)> = BTreeSet::new();
        let mut resident_key: HashMap<u32, u64> = HashMap::new();
        let mut outcomes = Vec::with_capacity(addrs.len());

        for (i, line) in lines.enumerate() {
            if let Some(&key) = resident_key.get(&line) {
                outcomes.push(AccessOutcome::Hit);
                by_next_use.remove(&(key, line));
                by_next_use.insert((next[i], line));
                resident_key.insert(line, next[i]);
            } else {
                outcomes.push(AccessOutcome::Miss);
                if next[i] == NEVER {
                    // Never used again: bypassing is optimal.
                    continue;
                }
                if resident_key.len() < capacity_lines {
                    by_next_use.insert((next[i], line));
                    resident_key.insert(line, next[i]);
                } else {
                    // Compare with the furthest-next-use resident.
                    let &(worst_key, worst_line) =
                        by_next_use.iter().next_back().expect("cache is full");
                    if next[i] < worst_key {
                        by_next_use.remove(&(worst_key, worst_line));
                        resident_key.remove(&worst_line);
                        by_next_use.insert((next[i], line));
                        resident_key.insert(line, next[i]);
                    }
                    // else: bypass the incoming block.
                }
            }
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_addrs, CacheConfig, FullyAssociative, Replacement, SplitMix64};

    #[test]
    fn keeps_the_reused_block() {
        // (a b)^n with one line: a kept, b bypassed after its first miss...
        // every b access misses, a misses once.
        let addrs: Vec<u32> = (0..10).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
        let stats = OptimalFullyAssociative::simulate(1, 4, addrs).unwrap();
        assert_eq!(stats.misses(), 6); // a once + b five times
    }

    #[test]
    fn lru_hostile_cycle_is_handled_optimally() {
        // Cyclic sweep of C+1 blocks over C lines: LRU misses everything;
        // MIN keeps C-1 blocks resident and misses ~2 per cycle.
        let c = 4usize;
        let blocks = 5u32;
        let addrs: Vec<u32> = (0..50).map(|i| (i % blocks) * 4).collect();
        let min = OptimalFullyAssociative::simulate(c, 4, addrs.iter().copied()).unwrap();
        let mut lru = FullyAssociative::new(16, 4, Replacement::Lru).unwrap();
        let lru_stats = run_addrs(&mut lru, addrs.iter().copied());
        assert_eq!(lru_stats.misses(), 50, "LRU thrashes");
        assert!(
            min.misses() < 20,
            "MIN keeps most of the cycle: {}",
            min.misses()
        );
    }

    #[test]
    fn min_bounds_lru_everywhere() {
        let mut rng = SplitMix64::new(61);
        for trial in 0..20 {
            let addrs: Vec<u32> = (0..500).map(|_| (rng.below(64) as u32) * 4).collect();
            let min = OptimalFullyAssociative::simulate(8, 4, addrs.iter().copied()).unwrap();
            let mut lru = FullyAssociative::new(32, 4, Replacement::Lru).unwrap();
            let lru_stats = run_addrs(&mut lru, addrs.iter().copied());
            assert!(min.misses() <= lru_stats.misses(), "trial {trial}");
        }
    }

    #[test]
    fn min_bounds_direct_mapped_of_equal_capacity() {
        // Placement freedom can only help: FA-MIN <= DM on any stream.
        let mut rng = SplitMix64::new(62);
        for trial in 0..20 {
            let addrs: Vec<u32> = (0..500).map(|_| (rng.below(128) as u32) * 4).collect();
            let min = OptimalFullyAssociative::simulate(16, 4, addrs.iter().copied()).unwrap();
            let mut dm = crate::DirectMapped::new(CacheConfig::direct_mapped(64, 4).unwrap());
            let dm_stats = run_addrs(&mut dm, addrs.iter().copied());
            assert!(min.misses() <= dm_stats.misses(), "trial {trial}");
        }
    }

    /// Exhaustive optimality: dynamic programming over all eviction/bypass
    /// choices must not beat the greedy furthest-in-future rule.
    #[test]
    fn greedy_matches_exhaustive_minimum() {
        use std::collections::HashMap as Map;

        fn min_misses(
            lines: &[u32],
            i: usize,
            resident: &mut Vec<u32>, // sorted
            capacity: usize,
            memo: &mut Map<(usize, Vec<u32>), u64>,
        ) -> u64 {
            if i == lines.len() {
                return 0;
            }
            let key = (i, resident.clone());
            if let Some(&m) = memo.get(&key) {
                return m;
            }
            let line = lines[i];
            let result = if resident.contains(&line) {
                min_misses(lines, i + 1, resident, capacity, memo)
            } else {
                // Option A: bypass.
                let mut best = min_misses(lines, i + 1, resident, capacity, memo);
                // Option B: insert (evicting each possible victim).
                if resident.len() < capacity {
                    let mut r = resident.clone();
                    r.push(line);
                    r.sort_unstable();
                    best = best.min(min_misses(lines, i + 1, &mut r, capacity, memo));
                } else {
                    for v in 0..resident.len() {
                        let mut r = resident.clone();
                        r[v] = line;
                        r.sort_unstable();
                        best = best.min(min_misses(lines, i + 1, &mut r, capacity, memo));
                    }
                }
                1 + best
            };
            memo.insert(key, result);
            result
        }

        let mut rng = SplitMix64::new(63);
        for trial in 0..60 {
            let len = 2 + rng.below_usize(10);
            let blocks = 2 + rng.below(4) as u32;
            let capacity = 1 + rng.below_usize(2);
            let lines: Vec<u32> = (0..len).map(|_| rng.below(blocks as u64) as u32).collect();
            let addrs: Vec<u32> = lines.iter().map(|&l| l * 4).collect();
            let greedy = OptimalFullyAssociative::simulate(capacity, 4, addrs)
                .unwrap()
                .misses();
            let best = min_misses(&lines, 0, &mut Vec::new(), capacity, &mut Map::new());
            assert_eq!(
                greedy, best,
                "trial {trial}: lines {lines:?} capacity {capacity}"
            );
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(OptimalFullyAssociative::simulate(0, 4, [0u32]).is_err());
        assert!(OptimalFullyAssociative::simulate(4, 0, [0u32]).is_err());
        assert!(OptimalFullyAssociative::simulate(4, 2, [0u32]).is_err());
    }

    #[test]
    fn empty_trace() {
        let stats = OptimalFullyAssociative::simulate(4, 4, std::iter::empty()).unwrap();
        assert_eq!(stats.accesses(), 0);
    }
}
