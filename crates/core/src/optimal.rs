//! The paper's "optimal direct-mapped cache": direct-mapped placement with a
//! future-knowing replacement *and bypass* policy.
//!
//! Each line of a direct-mapped cache is an independent one-entry cache, and
//! a one-entry cache with bypass has a simple optimal policy: on a miss,
//! keep whichever of {resident block, incoming block} is referenced again
//! sooner (Belady's MIN specialized to a single entry). This needs future
//! knowledge, so it is computed offline in two passes: one to chain each
//! reference to the next use of its block, one to simulate.
//!
//! Optimality of the greedy rule is verified in the test suite against an
//! exhaustive search over all load/bypass decision sequences.

use std::collections::HashMap;

use dynex_cache::{AccessOutcome, CacheConfig, CacheStats};

const INVALID_LINE: u32 = u32::MAX;
const NEVER: usize = usize::MAX;

/// Offline simulator for the optimal direct-mapped cache.
///
/// Not a [`dynex_cache::CacheSim`]: the policy needs the whole trace up
/// front. Use [`OptimalDirectMapped::simulate`] for one-word lines and
/// [`OptimalDirectMapped::simulate_with_lastline`] for multi-word lines
/// (where the comparable DE cache also has a last-line buffer; see
/// [`crate::LastLineDeCache`]).
///
/// # Examples
///
/// ```
/// use dynex::OptimalDirectMapped;
/// use dynex_cache::CacheConfig;
///
/// // (a b)^3 on one line: optimal keeps one block => misses a, then b 3x.
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let stats = OptimalDirectMapped::simulate(config, [0u32, 64, 0, 64, 0, 64]);
/// assert_eq!(stats.misses(), 4);
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OptimalDirectMapped;

impl OptimalDirectMapped {
    /// Simulates the optimal direct-mapped cache over byte addresses.
    pub fn simulate<I>(config: CacheConfig, addrs: I) -> CacheStats
    where
        I: IntoIterator<Item = u32>,
    {
        let geometry = config.geometry();
        let lines: Vec<u32> = addrs.into_iter().map(|a| geometry.line_addr(a)).collect();
        let next = next_use(&lines);

        let n_sets = config.n_sets() as usize;
        let mut resident = vec![INVALID_LINE; n_sets];
        let mut resident_next = vec![NEVER; n_sets];
        let mut stats = CacheStats::new();

        for (i, &line) in lines.iter().enumerate() {
            let set = geometry.set_of_line(line) as usize;
            if resident[set] == line {
                stats.record(AccessOutcome::Hit);
                resident_next[set] = next[i];
            } else {
                stats.record(AccessOutcome::Miss);
                // Keep whichever block is used sooner. An invalid resident
                // has resident_next == NEVER, so the incoming block wins.
                if next[i] < resident_next[set] {
                    resident[set] = line;
                    resident_next[set] = next[i];
                }
            }
        }
        stats
    }

    /// Simulates the optimal direct-mapped cache *with a last-line buffer*
    /// over byte addresses.
    ///
    /// Consecutive references to the same line are served by the buffer
    /// (hits), and the optimal decision is made once per line run using the
    /// next *run* of the same line as the future-use distance — the same
    /// accounting as [`crate::LastLineDeCache`], keeping this an upper bound
    /// for the DE cache at every line size.
    pub fn simulate_with_lastline<I>(config: CacheConfig, addrs: I) -> CacheStats
    where
        I: IntoIterator<Item = u32>,
    {
        let geometry = config.geometry();

        // Collapse into line runs.
        let mut runs: Vec<(u32, u32)> = Vec::new(); // (line, length)
        for addr in addrs {
            let line = geometry.line_addr(addr);
            match runs.last_mut() {
                Some((last, len)) if *last == line => *len += 1,
                _ => runs.push((line, 1)),
            }
        }
        let run_lines: Vec<u32> = runs.iter().map(|&(line, _)| line).collect();
        let next = next_use(&run_lines);

        let n_sets = config.n_sets() as usize;
        let mut resident = vec![INVALID_LINE; n_sets];
        let mut resident_next = vec![NEVER; n_sets];
        let mut stats = CacheStats::new();

        for (i, &(line, len)) in runs.iter().enumerate() {
            let set = geometry.set_of_line(line) as usize;
            if resident[set] == line {
                stats.record(AccessOutcome::Hit);
                resident_next[set] = next[i];
            } else {
                stats.record(AccessOutcome::Miss);
                if next[i] < resident_next[set] {
                    resident[set] = line;
                    resident_next[set] = next[i];
                }
            }
            // The rest of the run hits in the last-line buffer.
            for _ in 1..len {
                stats.record(AccessOutcome::Hit);
            }
        }
        stats
    }
}

/// For each position, the position of the next reference to the same value
/// (`NEVER` if none).
fn next_use(values: &[u32]) -> Vec<usize> {
    let mut next = vec![NEVER; values.len()];
    let mut upcoming: HashMap<u32, usize> = HashMap::new();
    for (i, &v) in values.iter().enumerate().rev() {
        if let Some(&j) = upcoming.get(&v) {
            next[i] = j;
        }
        upcoming.insert(v, i);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_cache::{run_addrs, DirectMapped};

    fn config(size: u32, line: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, line).unwrap()
    }

    #[test]
    fn next_use_chains() {
        let next = next_use(&[5, 7, 5, 5, 7]);
        assert_eq!(next, vec![2, 4, 3, NEVER, NEVER]);
        assert_eq!(next_use(&[]), Vec::<usize>::new());
    }

    #[test]
    fn section3_conflict_between_loops_is_10_percent() {
        // (a^10 b^10)^10 => 20 misses / 200 refs.
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.extend(std::iter::repeat_n(0u32, 10));
            addrs.extend(std::iter::repeat_n(64u32, 10));
        }
        let stats = OptimalDirectMapped::simulate(config(64, 4), addrs);
        assert_eq!(stats.misses(), 20);
        assert_eq!(stats.accesses(), 200);
    }

    #[test]
    fn section3_loop_levels_is_10_percent() {
        // (a^10 b)^10 => a_m b_m (a_h^10 b_m)^9: 11 misses / 110 refs.
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.extend(std::iter::repeat_n(0u32, 10));
            addrs.push(64);
        }
        let stats = OptimalDirectMapped::simulate(config(64, 4), addrs);
        assert_eq!(stats.misses(), 11);
        assert_eq!(stats.accesses(), 110);
    }

    #[test]
    fn section3_within_loop_is_55_percent() {
        // (a b)^10 => keep one block: 11 misses / 20 refs.
        let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
        let stats = OptimalDirectMapped::simulate(config(64, 4), addrs);
        assert_eq!(stats.misses(), 11);
    }

    #[test]
    fn never_worse_than_conventional() {
        let cfg = config(128, 4);
        let mut rng = dynex_cache::SplitMix64::new(8);
        let addrs: Vec<u32> = (0..3000).map(|_| (rng.below(128) as u32) * 4).collect();
        let mut dm = DirectMapped::new(cfg);
        let dm_stats = run_addrs(&mut dm, addrs.iter().copied());
        let opt_stats = OptimalDirectMapped::simulate(cfg, addrs);
        assert!(opt_stats.misses() <= dm_stats.misses());
    }

    /// Exhaustive optimality check: dynamic programming over all
    /// (position, resident) states must not beat the greedy policy.
    #[test]
    fn greedy_matches_exhaustive_minimum() {
        fn min_misses(
            lines: &[u32],
            i: usize,
            resident: u32,
            memo: &mut HashMap<(usize, u32), u64>,
        ) -> u64 {
            if i == lines.len() {
                return 0;
            }
            if let Some(&m) = memo.get(&(i, resident)) {
                return m;
            }
            let line = lines[i];
            let result = if line == resident {
                min_misses(lines, i + 1, resident, memo)
            } else {
                let load = min_misses(lines, i + 1, line, memo);
                let bypass = min_misses(lines, i + 1, resident, memo);
                1 + load.min(bypass)
            };
            memo.insert((i, resident), result);
            result
        }

        let cfg = config(4, 4); // a single line: every block conflicts
        let mut rng = dynex_cache::SplitMix64::new(42);
        for trial in 0..200 {
            let len = 2 + rng.below_usize(14);
            let blocks = 1 + rng.below(4) as u32;
            let lines: Vec<u32> = (0..len).map(|_| rng.below(blocks as u64) as u32).collect();
            let addrs: Vec<u32> = lines.iter().map(|&l| l * 4).collect();
            let greedy = OptimalDirectMapped::simulate(cfg, addrs).misses();
            let best = min_misses(&lines, 0, INVALID_LINE, &mut HashMap::new());
            assert_eq!(greedy, best, "trial {trial}: lines {lines:?}");
        }
    }

    #[test]
    fn sweep_kernel_lastline_matches_reference() {
        // The fast kernel's last-line optimal points decide once per run
        // at the run's last position; the counts must equal this run-index
        // oracle at every line size.
        use dynex_cache::{batch_sweep, SplitMix64, SweepPoint, SweepPolicy};
        let mut rng = SplitMix64::new(30);
        let mut addrs = Vec::new();
        while addrs.len() < 9_000 {
            let start = rng.below(4_096) as u32;
            addrs.extend((start..start + 1 + rng.below(10) as u32).map(|w| w * 4));
        }
        for line in [4u32, 16, 64] {
            for size in [256u32, 2048] {
                let cfg = config(size, line);
                let point = SweepPoint::new(cfg, SweepPolicy::OptimalLastLine);
                assert_eq!(
                    batch_sweep(&[point], &addrs)[0].stats(),
                    OptimalDirectMapped::simulate_with_lastline(cfg, addrs.iter().copied()),
                    "{cfg}"
                );
            }
        }
    }

    #[test]
    fn lastline_variant_counts_runs() {
        // Two conflicting 16B lines, 4-word runs, alternating 10 times:
        // optimal keeps one line => misses: other line per run + 1 cold.
        let cfg = config(64, 16);
        let mut addrs = Vec::new();
        for round in 0..10 {
            let base = if round % 2 == 0 { 0u32 } else { 64 };
            for w in 0..4 {
                addrs.push(base + w * 4);
            }
        }
        let stats = OptimalDirectMapped::simulate_with_lastline(cfg, addrs);
        assert_eq!(stats.accesses(), 40);
        assert_eq!(stats.misses(), 6); // cold A + 5 B runs (B bypassed)
    }

    #[test]
    fn lastline_equals_plain_for_word_lines_without_repeats() {
        let cfg = config(128, 4);
        let mut rng = dynex_cache::SplitMix64::new(4);
        let mut addrs = Vec::new();
        let mut last = u32::MAX;
        for _ in 0..500 {
            let mut a = (rng.below(64) as u32) * 4;
            if a == last {
                a = (a + 4) % 256;
            }
            last = a;
            addrs.push(a);
        }
        let plain = OptimalDirectMapped::simulate(cfg, addrs.iter().copied());
        let buffered = OptimalDirectMapped::simulate_with_lastline(cfg, addrs);
        assert_eq!(plain, buffered);
    }

    #[test]
    fn empty_trace() {
        let stats = OptimalDirectMapped::simulate(config(64, 4), std::iter::empty());
        assert_eq!(stats.accesses(), 0);
    }
}
