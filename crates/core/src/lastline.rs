//! Dynamic exclusion with multi-word lines (Section 6, Figure 10).
//!
//! Two problems appear when a line holds several instructions: sequential
//! references within a line would churn the FSM (the loop patterns vanish),
//! and excluding a whole line would make every sequential instruction in it
//! miss. The paper's fix — implemented here as its second alternative — adds
//! a *last-line* buffer with its own *last-tag*: sequential references that
//! match the last-tag are served from the buffer without touching dynamic
//! exclusion state, so the FSM sees one event per line *run* and bypassed
//! lines still enjoy spatial locality.

use dynex_cache::{AccessOutcome, CacheConfig, CacheSim, CacheStats};
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::{DeCache, DeStats, HitLastStore, PerfectStore};

/// A dynamic-exclusion cache with a last-line buffer, for line sizes above
/// one word.
///
/// References to the most recently touched line are served from the buffer
/// (hits that change no DE state); the first reference of each new line run
/// goes through the inner [`DeCache`]. With one-word lines this is
/// observably different from a bare [`DeCache`] only for back-to-back
/// repeats of the same word, which hit the buffer either way.
///
/// # Examples
///
/// ```
/// use dynex::LastLineDeCache;
/// use dynex_cache::{CacheConfig, CacheSim};
///
/// let mut cache = LastLineDeCache::new(CacheConfig::direct_mapped(256, 16)?);
/// cache.access(0x100);                 // miss: new line
/// assert!(cache.access(0x104).is_hit()); // same line: last-line buffer
/// assert!(cache.access(0x10c).is_hit());
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LastLineDeCache<S = PerfectStore, P: Probe = NoopProbe> {
    inner: DeCache<S, P>,
    last_tag: Option<u32>,
    buffer_hits: u64,
    stats: CacheStats,
}

impl LastLineDeCache<PerfectStore> {
    /// Creates a last-line DE cache with an unbounded hit-last store.
    pub fn new(config: CacheConfig) -> LastLineDeCache<PerfectStore> {
        LastLineDeCache::with_store(config, PerfectStore::new())
    }
}

impl<S: HitLastStore> LastLineDeCache<S> {
    /// Creates a last-line DE cache over a caller-provided hit-last store.
    pub fn with_store(config: CacheConfig, store: S) -> LastLineDeCache<S> {
        LastLineDeCache::with_store_and_probe(config, store, NoopProbe)
    }
}

impl<S: HitLastStore, P: Probe> LastLineDeCache<S, P> {
    /// Creates a last-line DE cache over a caller-provided hit-last store,
    /// emitting events into `probe`.
    ///
    /// Buffer hits surface as [`Event::Access`] with
    /// [`Cause::LineBuffer`]; everything else comes from the inner
    /// [`DeCache`].
    pub fn with_store_and_probe(config: CacheConfig, store: S, probe: P) -> LastLineDeCache<S, P> {
        LastLineDeCache {
            inner: DeCache::with_store_and_probe(config, store, probe),
            last_tag: None,
            buffer_hits: 0,
            stats: CacheStats::new(),
        }
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        self.inner.probe()
    }

    /// Consumes the cache, returning the attached probe.
    pub fn into_probe(self) -> P {
        self.inner.into_probe()
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.inner.config()
    }

    /// DE counters of the inner cache (loads/bypasses count line runs).
    pub fn de_stats(&self) -> DeStats {
        self.inner.de_stats()
    }

    /// References served by the last-line buffer.
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits
    }

    /// Extra state the structure adds over a conventional direct-mapped
    /// cache, in bits: the last-line buffer (data + tag) plus one sticky bit
    /// per line plus `hit_last_bits_per_line` hit-last bits per line. Used by
    /// the Figure 13 efficiency comparison.
    pub fn overhead_bits(&self, hit_last_bits_per_line: u32) -> u64 {
        let config = self.config();
        let line_bits = config.line_bytes() as u64 * 8;
        let tag_bits = 32 - config.geometry().offset_bits() as u64; // full line address
        let per_line = 1 + hit_last_bits_per_line as u64;
        line_bits + tag_bits + per_line * config.n_lines() as u64
    }
}

impl<S: HitLastStore, P: Probe> CacheSim for LastLineDeCache<S, P> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.inner.config().geometry().line_addr(addr);
        let outcome = if self.last_tag == Some(line) {
            self.buffer_hits += 1;
            let set = self.inner.set_of_line(line);
            self.inner.probe_mut().emit(Event::Access {
                addr,
                set,
                outcome: Outcome::Hit,
                cause: Cause::LineBuffer,
            });
            AccessOutcome::Hit
        } else {
            self.last_tag = Some(line);
            self.inner.access_line(line)
        };
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!("{} (dynamic exclusion + last-line)", self.inner.config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_cache::run_addrs;

    #[test]
    fn sequential_run_costs_one_miss_even_when_bypassed() {
        // 64B cache, 16B lines (4 sets). Two conflicting lines alternate;
        // within each line, 4 sequential words.
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut de = LastLineDeCache::new(cfg);
        let mut addrs = Vec::new();
        for round in 0..10 {
            let base = if round % 2 == 0 { 0u32 } else { 64 };
            for w in 0..4 {
                addrs.push(base + w * 4);
            }
        }
        let stats = run_addrs(&mut de, addrs);
        // Line runs look like (A B)^5 at line granularity: DE keeps A
        // resident, B bypasses — but B's words after the first are buffer
        // hits. Misses: A cold (1) + B runs (5) = 6.
        assert_eq!(stats.misses(), 6);
        assert_eq!(de.buffer_hits(), 30);
    }

    #[test]
    fn fsm_state_updates_once_per_line_run() {
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut de = LastLineDeCache::new(cfg);
        // One run of 4 words in line A: exactly one load event.
        run_addrs(&mut de, [0u32, 4, 8, 12]);
        assert_eq!(de.de_stats().loads, 1);
        assert_eq!(de.de_stats().bypasses, 0);
    }

    #[test]
    fn word_lines_match_bare_de_cache() {
        // With 4B lines, repeats aside, the wrapper must agree with DeCache.
        let cfg = CacheConfig::direct_mapped(64, 4).unwrap();
        let mut wrapped = LastLineDeCache::new(cfg);
        let mut bare = DeCache::new(cfg);
        let mut rng = dynex_cache::SplitMix64::new(17);
        let mut last = u32::MAX;
        for _ in 0..2000 {
            // Avoid immediate repeats so the buffer can't differ from the
            // cache (a repeat hits in both anyway, but via different paths).
            let mut a = (rng.below(32) as u32) * 4;
            if a == last {
                a = (a + 4) % 128;
            }
            last = a;
            assert_eq!(wrapped.access(a), bare.access(a));
        }
        assert_eq!(wrapped.stats(), bare.stats());
    }

    #[test]
    fn immediate_repeat_hits_buffer_without_fsm_update() {
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut de = LastLineDeCache::new(cfg);
        de.access(0x0);
        let loads_before = de.de_stats().loads;
        assert!(de.access(0x0).is_hit());
        assert_eq!(de.de_stats().loads, loads_before);
        assert_eq!(de.buffer_hits(), 1);
    }

    #[test]
    fn buffer_does_not_shield_conflicting_lines() {
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut de = LastLineDeCache::new(cfg);
        de.access(0x0); // line A
        de.access(64); // line B, conflicting: miss (bypass), buffer now B
        assert!(de.access(0x0).is_hit(), "A still resident in the cache");
    }

    #[test]
    fn overhead_bits_accounting() {
        // 8KB cache, 16B lines = 512 lines. Last line: 128 data + 28 tag
        // bits; per line: 1 sticky + 4 hit-last = 5 bits.
        let cfg = CacheConfig::direct_mapped(8 * 1024, 16).unwrap();
        let de = LastLineDeCache::new(cfg);
        assert_eq!(de.overhead_bits(4), 128 + 28 + 5 * 512);
    }

    #[test]
    fn label_mentions_last_line() {
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        assert!(LastLineDeCache::new(cfg).label().contains("last-line"));
    }

    #[test]
    fn probe_attributes_buffer_hits_to_the_line_buffer() {
        use dynex_obs::{EventLog, Outcome};
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut de =
            LastLineDeCache::with_store_and_probe(cfg, PerfectStore::new(), EventLog::new());
        run_addrs(&mut de, [0u32, 4, 8, 64]); // load, 2 buffer hits, bypass
        let events = de.into_probe().into_events();
        let buffered = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Access {
                        outcome: Outcome::Hit,
                        cause: Cause::LineBuffer,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(buffered, 2);
        // Access events cover every reference exactly once.
        let accesses = events
            .iter()
            .filter(|e| matches!(e, Event::Access { .. }))
            .count();
        assert_eq!(accesses, 4);
    }

    /// The fast kernel's last-line DE points must replicate this cache
    /// bit-for-bit at every line size: statistics, run-level load/bypass
    /// split, and the event stream with its buffer hits.
    #[test]
    fn sweep_kernel_matches_reference_events_and_stats() {
        use dynex_cache::{batch_sweep_probed, SplitMix64, SweepPoint, SweepPolicy};
        use dynex_obs::EventLog;
        let mut rng = SplitMix64::new(29);
        let mut addrs = Vec::new();
        while addrs.len() < 9_000 {
            let start = rng.below(4_096) as u32;
            addrs.extend((start..start + 1 + rng.below(10) as u32).map(|w| w * 4));
        }
        for line in [4u32, 16, 64] {
            for size in [256u32, 2048] {
                let cfg = CacheConfig::direct_mapped(size, line).unwrap();
                let mut reference = LastLineDeCache::with_store_and_probe(
                    cfg,
                    PerfectStore::new(),
                    EventLog::new(),
                );
                let ref_stats = run_addrs(&mut reference, addrs.iter().copied());
                let ref_de = reference.de_stats();
                let ref_events = reference.into_probe().into_events();

                let mut logs = [EventLog::new()];
                let point = SweepPoint::new(cfg, SweepPolicy::DeLastLine);
                let (stats, de) = batch_sweep_probed(&[point], &addrs, &mut logs)[0];
                let [log] = logs;
                assert_eq!(stats, ref_stats, "{cfg}");
                assert_eq!(de, Some(ref_de), "{cfg}");
                assert_eq!(log.into_events(), ref_events, "{cfg}");
            }
        }
    }

    #[test]
    fn probed_and_bare_runs_are_identical() {
        use dynex_obs::CountingProbe;
        let cfg = CacheConfig::direct_mapped(64, 16).unwrap();
        let mut bare = LastLineDeCache::new(cfg);
        let mut probed =
            LastLineDeCache::with_store_and_probe(cfg, PerfectStore::new(), CountingProbe::new());
        let mut rng = dynex_cache::SplitMix64::new(27);
        for _ in 0..3000 {
            let a = (rng.below(256) as u32) & !3;
            assert_eq!(bare.access(a), probed.access(a));
        }
        assert_eq!(bare.stats(), probed.stats());
        assert_eq!(bare.buffer_hits(), probed.buffer_hits());
        assert_eq!(probed.probe().counts().accesses, probed.stats().accesses());
    }
}
