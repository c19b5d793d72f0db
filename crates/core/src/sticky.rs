//! Multi-level sticky counters — the paper's "additional sticky bits"
//! extension (\[McF91a\], discussed at the end of Section 4).
//!
//! A loop whose body has three mutually conflicting instructions,
//! `(a b c)^n`, defeats the single sticky bit: every reference misses in
//! both a conventional and a single-bit DE cache. Giving each line a small
//! saturating counter instead of one bit lets a resident block survive
//! several distinct unproven challengers, effectively locking `a` in the
//! cache for this pattern. The paper reports mixed overall results (longer
//! training, worse behaviour on other patterns); the `ablate-sticky`
//! experiment quantifies that trade-off.

use dynex_cache::{AccessOutcome, CacheConfig, CacheSim, CacheStats, Geometry};
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::{DeStats, HitLastStore, PerfectStore};

const INVALID_LINE: u32 = u32::MAX;

/// A dynamic-exclusion cache whose sticky state is a saturating counter in
/// `0..=max_sticky`.
///
/// Transition rules (reducing exactly to the single-bit FSM when
/// `max_sticky == 1`):
///
/// * hit — counter saturates to `max_sticky`, `h[x] := 1`;
/// * miss, counter `== 0` — load, counter `:= max_sticky`, `h[x] := 1`;
/// * miss, counter `> 0`, `h[x]` set — load, counter unchanged, `h[x] := 0`;
/// * miss, counter `> 0`, `h[x]` clear — bypass, counter `-= 1`.
///
/// # Examples
///
/// ```
/// use dynex::MultiStickyDeCache;
/// use dynex_cache::{run_addrs, CacheConfig, CacheSim};
///
/// // (a b c)^10 on one line: 2 sticky levels lock `a` in.
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let mut de2 = MultiStickyDeCache::new(config, 2);
/// let refs: Vec<u32> = (0..30).map(|i| [0u32, 64, 128][i % 3]).collect();
/// let stats = run_addrs(&mut de2, refs);
/// assert!(stats.misses() <= 21); // vs 30 for DM and single-bit DE
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiStickyDeCache<S = PerfectStore, P: Probe = NoopProbe> {
    config: CacheConfig,
    geometry: Geometry,
    max_sticky: u8,
    lines: Vec<u32>,
    counter: Vec<u8>,
    h_copy: Vec<bool>,
    store: S,
    stats: CacheStats,
    de_stats: DeStats,
    probe: P,
}

impl MultiStickyDeCache<PerfectStore> {
    /// Creates a multi-sticky DE cache with an unbounded hit-last store.
    ///
    /// # Panics
    ///
    /// Panics if `max_sticky == 0` (a zero-inertia cache is just
    /// direct-mapped; construct [`dynex_cache::DirectMapped`] instead) or if
    /// `config` is not direct-mapped.
    pub fn new(config: CacheConfig, max_sticky: u8) -> MultiStickyDeCache<PerfectStore> {
        MultiStickyDeCache::with_store(config, max_sticky, PerfectStore::new())
    }
}

impl<S: HitLastStore> MultiStickyDeCache<S> {
    /// Creates a multi-sticky DE cache over a caller-provided store.
    ///
    /// # Panics
    ///
    /// Same as [`MultiStickyDeCache::new`].
    pub fn with_store(config: CacheConfig, max_sticky: u8, store: S) -> MultiStickyDeCache<S> {
        MultiStickyDeCache::with_store_and_probe(config, max_sticky, store, NoopProbe)
    }
}

impl<S: HitLastStore, P: Probe> MultiStickyDeCache<S, P> {
    /// Creates a multi-sticky DE cache over a caller-provided store, emitting
    /// events into `probe`.
    ///
    /// [`Event::StickyFlip`] fires when a line's inertia changes between
    /// "none" and "some" (counter crossing zero), matching the single-bit
    /// FSM's flips when `max_sticky == 1`.
    ///
    /// # Panics
    ///
    /// Same as [`MultiStickyDeCache::new`].
    pub fn with_store_and_probe(
        config: CacheConfig,
        max_sticky: u8,
        store: S,
        probe: P,
    ) -> MultiStickyDeCache<S, P> {
        assert!(max_sticky >= 1, "max_sticky must be at least 1");
        assert_eq!(
            config.associativity(),
            1,
            "dynamic exclusion applies to direct-mapped caches"
        );
        let n = config.n_sets() as usize;
        MultiStickyDeCache {
            config,
            geometry: config.geometry(),
            max_sticky,
            lines: vec![INVALID_LINE; n],
            counter: vec![0; n],
            h_copy: vec![false; n],
            store,
            stats: CacheStats::new(),
            de_stats: DeStats::default(),
            probe,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The saturation level of the sticky counters.
    pub fn max_sticky(&self) -> u8 {
        self.max_sticky
    }

    /// Dynamic-exclusion counters.
    pub fn de_stats(&self) -> DeStats {
        self.de_stats
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the cache, returning the attached probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Whether `addr`'s block is resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        let line = self.geometry.line_addr(addr);
        self.lines[self.geometry.set_of_line(line) as usize] == line
    }

    /// Emits a sticky flip when the counter's truthiness changed.
    fn emit_sticky(&mut self, set: u32, before: u8, after: u8) {
        if (before > 0) != (after > 0) {
            self.probe.emit(Event::StickyFlip {
                set,
                sticky: after > 0,
            });
        }
    }
}

impl<S: HitLastStore, P: Probe> CacheSim for MultiStickyDeCache<S, P> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.geometry.line_addr(addr);
        let set_index = self.geometry.set_of_line(line);
        let set = set_index as usize;
        let counter_before = self.counter[set];
        let (outcome, cause) = if self.lines[set] == line {
            self.counter[set] = self.max_sticky;
            self.h_copy[set] = true;
            self.emit_sticky(set_index, counter_before, self.max_sticky);
            self.probe.emit(Event::HitLastUpdate {
                line,
                hit_last: true,
            });
            (AccessOutcome::Hit, Cause::Resident)
        } else if self.counter[set] == 0 {
            self.probe.emit(Event::ExclusionDecision {
                set: set_index,
                line,
                loaded: true,
            });
            let cause = if self.lines[set] != INVALID_LINE {
                self.store.set(self.lines[set], self.h_copy[set]);
                self.probe.emit(Event::Eviction {
                    set: set_index,
                    victim: self.lines[set],
                    replacement: line,
                });
                Cause::Replace
            } else {
                Cause::Cold
            };
            self.lines[set] = line;
            self.counter[set] = self.max_sticky;
            self.h_copy[set] = true;
            self.emit_sticky(set_index, counter_before, self.max_sticky);
            self.probe.emit(Event::HitLastUpdate {
                line,
                hit_last: true,
            });
            self.de_stats.loads += 1;
            (AccessOutcome::Miss, cause)
        } else if self.store.get(line) {
            self.probe.emit(Event::ExclusionDecision {
                set: set_index,
                line,
                loaded: true,
            });
            let cause = if self.lines[set] != INVALID_LINE {
                self.store.set(self.lines[set], self.h_copy[set]);
                self.probe.emit(Event::Eviction {
                    set: set_index,
                    victim: self.lines[set],
                    replacement: line,
                });
                Cause::Replace
            } else {
                Cause::Cold
            };
            self.lines[set] = line;
            self.h_copy[set] = false; // consumed, as in the single-bit FSM
            self.probe.emit(Event::HitLastUpdate {
                line,
                hit_last: false,
            });
            self.de_stats.loads += 1;
            (AccessOutcome::Miss, cause)
        } else {
            self.probe.emit(Event::ExclusionDecision {
                set: set_index,
                line,
                loaded: false,
            });
            self.counter[set] -= 1;
            self.emit_sticky(set_index, counter_before, self.counter[set]);
            self.de_stats.bypasses += 1;
            (AccessOutcome::Miss, Cause::Bypass)
        };
        self.probe.emit(Event::Access {
            addr,
            set: set_index,
            outcome: match outcome {
                AccessOutcome::Hit => Outcome::Hit,
                AccessOutcome::Miss => Outcome::Miss,
            },
            cause,
        });
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!(
            "{} (dynamic exclusion, sticky={})",
            self.config, self.max_sticky
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeCache;
    use dynex_cache::run_addrs;

    fn config() -> CacheConfig {
        CacheConfig::direct_mapped(64, 4).unwrap()
    }

    /// max_sticky == 1 must replicate the single-bit DE cache exactly.
    #[test]
    fn level_one_equals_single_bit_fsm() {
        let mut multi = MultiStickyDeCache::new(config(), 1);
        let mut single = DeCache::new(config());
        let mut rng = dynex_cache::SplitMix64::new(12);
        for _ in 0..5000 {
            let a = (rng.below(48) as u32) * 4;
            assert_eq!(multi.access(a), single.access(a));
        }
        assert_eq!(multi.stats(), single.stats());
        assert_eq!(multi.de_stats(), single.de_stats());
    }

    #[test]
    fn two_levels_rescue_three_way_loop() {
        // (a b c)^10: single-bit misses all 30; two levels keep `a`.
        let refs: Vec<u32> = (0..30).map(|i| [0u32, 64, 128][i % 3]).collect();
        let mut de1 = MultiStickyDeCache::new(config(), 1);
        let mut de2 = MultiStickyDeCache::new(config(), 2);
        let s1 = run_addrs(&mut de1, refs.iter().copied());
        let s2 = run_addrs(&mut de2, refs.iter().copied());
        assert_eq!(s1.misses(), 30);
        // With inertia 2: a hits every round after the first; b and c bypass.
        assert_eq!(s2.misses(), 21);
    }

    #[test]
    fn deep_counters_slow_adaptation_on_phase_change() {
        // Phase 1 trains on block a; phase 2 switches to (b)^k. Deeper
        // counters take longer to admit b — the paper's "additional startup
        // time" cost.
        fn misses_in_phase2(max_sticky: u8) -> u64 {
            let mut de = MultiStickyDeCache::new(config(), max_sticky);
            let mut refs: Vec<u32> = vec![0; 10]; // train a, counter saturated
            refs.extend(std::iter::repeat_n(64, 10)); // phase change
            let total = run_addrs(&mut de, refs).misses();
            total - 1 // subtract a's cold miss
        }
        let shallow = misses_in_phase2(1);
        let deep = misses_in_phase2(4);
        assert!(
            deep > shallow,
            "deeper sticky must adapt slower: {deep} vs {shallow}"
        );
    }

    #[test]
    fn counter_saturates_on_hits() {
        let mut de = MultiStickyDeCache::new(config(), 3);
        // Load a, wear the counter down with two distinct challengers, then
        // one hit must restore full inertia.
        de.access(0); // load, counter=3
        de.access(64); // bypass, 2
        de.access(128); // bypass, 1
        de.access(0); // hit, back to 3
        de.access(64); // bypass, 2
        de.access(128); // bypass, 1
        de.access(192); // bypass, 0
        assert!(de.contains(0), "resident survived six challengers");
        assert_eq!(de.de_stats().bypasses, 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sticky_rejected() {
        MultiStickyDeCache::new(config(), 0);
    }

    #[test]
    fn label_mentions_sticky_depth() {
        assert!(MultiStickyDeCache::new(config(), 2)
            .label()
            .contains("sticky=2"));
    }

    #[test]
    fn probed_level_one_events_match_single_bit_de_cache() {
        use dynex_obs::CountingProbe;
        let mut multi = MultiStickyDeCache::with_store_and_probe(
            config(),
            1,
            PerfectStore::new(),
            CountingProbe::new(),
        );
        let mut single = DeCache::with_probe(config(), CountingProbe::new());
        let mut rng = dynex_cache::SplitMix64::new(19);
        for _ in 0..4000 {
            let a = (rng.below(48) as u32) * 4;
            assert_eq!(multi.access(a), single.access(a));
        }
        let m = multi.probe().counts();
        let s = single.probe().counts();
        assert_eq!(m.accesses, s.accesses);
        assert_eq!(m.misses, s.misses);
        assert_eq!(m.evictions, s.evictions);
        assert_eq!(m.exclusion_loads, s.exclusion_loads);
        assert_eq!(m.exclusion_bypasses, s.exclusion_bypasses);
        assert_eq!(m.sticky_flips, s.sticky_flips);
    }

    #[test]
    fn probed_and_bare_runs_are_identical() {
        use dynex_obs::CountingProbe;
        let mut bare = MultiStickyDeCache::new(config(), 3);
        let mut probed = MultiStickyDeCache::with_store_and_probe(
            config(),
            3,
            PerfectStore::new(),
            CountingProbe::new(),
        );
        let mut rng = dynex_cache::SplitMix64::new(29);
        for _ in 0..4000 {
            let a = (rng.below(64) as u32) * 4;
            assert_eq!(bare.access(a), probed.access(a));
        }
        assert_eq!(bare.stats(), probed.stats());
        assert_eq!(bare.de_stats(), probed.de_stats());
        let c = probed.probe().counts();
        assert_eq!(c.exclusion_loads, probed.de_stats().loads);
        assert_eq!(c.exclusion_bypasses, probed.de_stats().bypasses);
    }
}
