//! The other two Section 6 structures for multi-word lines.
//!
//! The paper lists three "particularly simple" ways to keep an excluded line
//! available for its sequential references:
//!
//! 1. an **instruction register** the size of one line
//!    ([`InstrRegisterDeCache`]) — missing lines are always latched there,
//!    and only stored in the cache when the FSM says to;
//! 2. a **last-line buffer** with its own tag ([`crate::LastLineDeCache`]) —
//!    the alternative the paper evaluates in Figure 11;
//! 3. leaving excluded lines **in the stream buffer**
//!    ([`DeStreamBuffer`]) — cheapest if the machine already has one
//!    \[Jou90\], and the buffer's sequential prefetch comes along for free.
//!
//! The `ablate-linebuf` experiment compares the three.

use dynex_cache::{AccessOutcome, CacheConfig, CacheSim, CacheStats};

use crate::{DeCache, DeStats, HitLastStore, PerfectStore};

/// Section 6 alternative 1: dynamic exclusion with a one-line instruction
/// register.
///
/// Every fetched line — from memory *or* from the cache — passes through the
/// pipeline's instruction register, so sequential references are served from
/// it without touching dynamic-exclusion state, and an excluded line costs
/// one miss per run. Because the register latches every line change, this
/// structure is observably identical to the last-line buffer
/// ([`crate::LastLineDeCache`]) in miss behaviour — which is why the paper
/// evaluates only one of them; the types differ in hardware cost (the
/// register already exists in the pipeline, the last-line buffer adds a
/// tagged line beside the cache). The equivalence is pinned by a test.
///
/// # Examples
///
/// ```
/// use dynex::InstrRegisterDeCache;
/// use dynex_cache::{CacheConfig, CacheSim};
///
/// let mut cache = InstrRegisterDeCache::new(CacheConfig::direct_mapped(256, 16)?);
/// cache.access(0x100);                  // miss: latched in the register
/// assert!(cache.access(0x104).is_hit());  // served by the register
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InstrRegisterDeCache<S = PerfectStore> {
    inner: DeCache<S>,
    register: Option<u32>,
    register_hits: u64,
    stats: CacheStats,
}

impl InstrRegisterDeCache<PerfectStore> {
    /// Creates an instruction-register DE cache with an unbounded hit-last
    /// store.
    pub fn new(config: CacheConfig) -> InstrRegisterDeCache<PerfectStore> {
        InstrRegisterDeCache::with_store(config, PerfectStore::new())
    }
}

impl<S: HitLastStore> InstrRegisterDeCache<S> {
    /// Creates an instruction-register DE cache over a caller-provided
    /// store.
    pub fn with_store(config: CacheConfig, store: S) -> InstrRegisterDeCache<S> {
        InstrRegisterDeCache {
            inner: DeCache::with_store(config, store),
            register: None,
            register_hits: 0,
            stats: CacheStats::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.inner.config()
    }

    /// DE counters of the inner cache.
    pub fn de_stats(&self) -> DeStats {
        self.inner.de_stats()
    }

    /// References served by the instruction register.
    pub fn register_hits(&self) -> u64 {
        self.register_hits
    }
}

impl<S: HitLastStore> CacheSim for InstrRegisterDeCache<S> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.inner.config().geometry().line_addr(addr);
        let outcome = if self.register == Some(line) {
            self.register_hits += 1;
            AccessOutcome::Hit
        } else {
            // Any line change refills the register: from the cache on a hit,
            // from memory on a miss (where the FSM also decides storage).
            self.register = Some(line);
            self.inner.access_line(line)
        };
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!(
            "{} (dynamic exclusion + instruction register)",
            self.inner.config()
        )
    }
}

/// Section 6 alternative 3: dynamic exclusion backed by a sequential stream
/// buffer.
///
/// Missing lines refill the buffer; excluded (bypassed) lines simply stay in
/// it, so their sequential references cost one memory fetch, and the buffer's
/// prefetch additionally hides purely sequential misses — the paper notes
/// this is "probably the simplest if the machine already uses a stream
/// buffer".
///
/// Misses count memory fetches: a reference served by the buffer is a hit.
///
/// # Examples
///
/// ```
/// use dynex::DeStreamBuffer;
/// use dynex_cache::{CacheConfig, CacheSim};
///
/// let mut cache = DeStreamBuffer::new(CacheConfig::direct_mapped(256, 16)?, 4);
/// cache.access(0x100);                   // miss: buffer holds the line + prefetch
/// assert!(cache.access(0x10c).is_hit()); // same line, from the buffer
/// assert!(cache.access(0x110).is_hit()); // next line, prefetched
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeStreamBuffer<S = PerfectStore> {
    inner: DeCache<S>,
    /// Prefetched line addresses, head first.
    buffer: Vec<u32>,
    depth: usize,
    stream_hits: u64,
    stats: CacheStats,
}

impl DeStreamBuffer<PerfectStore> {
    /// Creates a DE cache with a `depth`-line stream buffer and an unbounded
    /// hit-last store.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(config: CacheConfig, depth: usize) -> DeStreamBuffer<PerfectStore> {
        DeStreamBuffer::with_store(config, depth, PerfectStore::new())
    }
}

impl<S: HitLastStore> DeStreamBuffer<S> {
    /// Creates a DE cache with a stream buffer over a caller-provided store.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn with_store(config: CacheConfig, depth: usize, store: S) -> DeStreamBuffer<S> {
        assert!(depth > 0, "stream buffer must hold at least one line");
        DeStreamBuffer {
            inner: DeCache::with_store(config, store),
            buffer: Vec::with_capacity(depth),
            depth,
            stream_hits: 0,
            stats: CacheStats::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.inner.config()
    }

    /// DE counters of the inner cache.
    pub fn de_stats(&self) -> DeStats {
        self.inner.de_stats()
    }

    /// References served by the stream buffer.
    pub fn stream_hits(&self) -> u64 {
        self.stream_hits
    }
}

impl<S: HitLastStore> CacheSim for DeStreamBuffer<S> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.inner.config().geometry().line_addr(addr);
        let outcome = if self.inner.contains(addr) {
            self.inner.access_line(line)
        } else if let Some(position) = self.buffer.iter().position(|&l| l == line) {
            // Served by the buffer: no memory fetch, no FSM churn (the line
            // keeps streaming). Slide the prefetch window so the served line
            // becomes the head and the tail keeps running ahead.
            self.stream_hits += 1;
            self.buffer.drain(..position);
            let mut next = self.buffer.last().copied().unwrap_or(line).wrapping_add(1);
            while self.buffer.len() < self.depth {
                self.buffer.push(next);
                next = next.wrapping_add(1);
            }
            AccessOutcome::Hit
        } else {
            // Memory fetch. The FSM decides whether the line also enters the
            // cache; either way the buffer restarts at this line so its
            // remaining words (and sequential successors) are covered.
            self.inner.access_line(line);
            self.buffer.clear();
            for i in 0..self.depth as u32 {
                self.buffer.push(line.wrapping_add(i));
            }
            AccessOutcome::Miss
        };
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!(
            "{} (dynamic exclusion + {}-deep stream buffer)",
            self.inner.config(),
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LastLineDeCache;
    use dynex_cache::run_addrs;

    fn config() -> CacheConfig {
        CacheConfig::direct_mapped(64, 16).unwrap()
    }

    /// Two conflicting 16B lines alternating in 4-word runs.
    fn alternating_runs(rounds: u32) -> Vec<u32> {
        let mut addrs = Vec::new();
        for round in 0..rounds {
            let base = if round % 2 == 0 { 0u32 } else { 64 };
            for w in 0..4 {
                addrs.push(base + w * 4);
            }
        }
        addrs
    }

    #[test]
    fn register_serves_sequential_words_of_excluded_lines() {
        let mut c = InstrRegisterDeCache::new(config());
        let stats = run_addrs(&mut c, alternating_runs(10));
        // Same steady state as the last-line buffer: A resident, B excluded
        // but latched: 1 cold + 5 B-run misses.
        assert_eq!(stats.misses(), 6);
        assert_eq!(c.register_hits(), 30);
    }

    /// Steps both caches over `addrs` and asserts they agree on every
    /// reference, in their statistics and in their buffer hits.
    fn assert_register_matches_last_line(config: CacheConfig, addrs: &[u32], stream: &str) {
        let mut reg = InstrRegisterDeCache::new(config);
        let mut ll = LastLineDeCache::new(config);
        for &pc in addrs {
            assert_eq!(
                reg.access(pc),
                ll.access(pc),
                "{stream} @ {config}, pc {pc:#x}"
            );
        }
        assert_eq!(reg.stats(), ll.stats(), "{stream} @ {config}");
        assert_eq!(reg.de_stats(), ll.de_stats(), "{stream} @ {config}");
        assert_eq!(reg.register_hits(), ll.buffer_hits(), "{stream} @ {config}");
    }

    #[test]
    fn register_is_equivalent_to_last_line_buffer() {
        // The paper's alternatives 1 and 2 differ only in hardware; the miss
        // behaviour is identical reference-for-reference.
        let mut rng = dynex_cache::SplitMix64::new(91);
        let mut pc = 0u32;
        let mut addrs = Vec::new();
        for _ in 0..5000 {
            if rng.chance(0.2) {
                pc = (rng.below(1024) as u32) * 4;
            } else {
                pc += 4;
            }
            addrs.push(pc);
        }
        assert_register_matches_last_line(config(), &addrs, "random");
    }

    #[test]
    fn register_is_last_line_at_the_ablation_geometries() {
        // The `ablate-linebuf` figure reads its instruction-register column
        // from the last-line cache, at 8 to 64 KB with 16 B lines; this pins
        // that equivalence over every profile's instruction stream.
        for profile in dynex_workload::spec::all() {
            let trace = profile.trace(40_000);
            let addrs: Vec<u32> = dynex_trace::filter::instructions(trace.iter())
                .map(|a| a.addr())
                .collect();
            for kb in [8u32, 16, 32, 64] {
                let config = CacheConfig::direct_mapped(kb * 1024, 16).unwrap();
                assert_register_matches_last_line(config, &addrs, profile.name());
            }
        }
    }

    #[test]
    fn stream_buffer_prefetches_across_lines() {
        let mut c = DeStreamBuffer::new(config(), 4);
        // A cold sequential sweep of 16 words (4 lines): one memory fetch.
        // The first line was loaded into the cache, so its remaining 3 words
        // are cache hits; the other 12 references stream from the buffer.
        let stats = run_addrs(&mut c, (0..16u32).map(|i| 0x100 + i * 4));
        assert_eq!(stats.misses(), 1);
        assert_eq!(c.stream_hits(), 12);
    }

    #[test]
    fn stream_buffer_keeps_excluded_lines_available() {
        // Stronger than the last-line buffer: the excluded line survives in
        // the buffer across the other line's cache hits (nothing flushes it
        // until a non-matching miss), so B pays exactly one memory fetch.
        let mut c = DeStreamBuffer::new(config(), 4);
        let stats = run_addrs(&mut c, alternating_runs(10));
        assert_eq!(stats.misses(), 2);
        assert!(
            c.de_stats().bypasses > 0,
            "the conflicting line was excluded"
        );
    }

    #[test]
    fn the_three_structures_rank_as_expected_on_alternation() {
        // Register == last-line; the stream buffer does strictly better on
        // the alternating pattern (it retains the excluded line).
        let addrs = alternating_runs(20);
        let mut reg = InstrRegisterDeCache::new(config());
        let mut ll = LastLineDeCache::new(config());
        let mut sb = DeStreamBuffer::new(config(), 4);
        let r = run_addrs(&mut reg, addrs.iter().copied());
        let l = run_addrs(&mut ll, addrs.iter().copied());
        let s = run_addrs(&mut sb, addrs.iter().copied());
        assert_eq!(r.misses(), l.misses());
        assert!(s.misses() <= l.misses());
        assert_eq!(s.misses(), 2, "one fetch per conflicting line");
    }

    #[test]
    fn stream_buffer_never_misses_more_than_last_line() {
        // The buffer is a strict superset of the last-line's capability on
        // instruction streams: it holds the latest line *and* prefetches.
        let mut rng = dynex_cache::SplitMix64::new(33);
        let mut addrs = Vec::new();
        let mut pc = 0u32;
        for _ in 0..3000 {
            if rng.chance(0.15) {
                pc = (rng.below(512) as u32) * 4;
            } else {
                pc += 4;
            }
            addrs.push(pc);
        }
        let mut ll = LastLineDeCache::new(config());
        let mut sb = DeStreamBuffer::new(config(), 4);
        let l = run_addrs(&mut ll, addrs.iter().copied());
        let s = run_addrs(&mut sb, addrs.iter().copied());
        assert!(
            s.misses() <= l.misses(),
            "sb {} vs ll {}",
            s.misses(),
            l.misses()
        );
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_depth_rejected() {
        DeStreamBuffer::new(config(), 0);
    }

    #[test]
    fn labels_name_the_structures() {
        assert!(InstrRegisterDeCache::new(config())
            .label()
            .contains("instruction register"));
        assert!(DeStreamBuffer::new(config(), 4)
            .label()
            .contains("stream buffer"));
    }
}
