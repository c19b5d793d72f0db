//! The single-level dynamic-exclusion cache (Sections 4–5 of the paper).

use dynex_cache::{AccessOutcome, CacheConfig, CacheSim, CacheStats};
use dynex_obs::{Cause, Event, NoopProbe, Probe};

use crate::{DeEvent, DeLines, HitLastStore, PerfectStore};

/// Dynamic-exclusion-specific counters, beyond hit/miss accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeStats {
    /// Misses that installed the referenced block.
    pub loads: u64,
    /// Misses that bypassed the cache (block passed straight to the CPU).
    pub bypasses: u64,
}

/// A direct-mapped cache governed by the dynamic-exclusion FSM.
///
/// This is the cache of the paper's Figures 3–5 (instruction streams),
/// Figure 14 (data streams), and Figure 15 (combined streams): one-word
/// lines, sticky bit per line, and a [`HitLastStore`] for the hit-last bits
/// of non-resident blocks ([`PerfectStore`] by default — the "in principle"
/// store; use [`crate::HashedStore`] for the bounded one, or
/// [`crate::DeHierarchy`] for the L2-backed strategies).
///
/// For line sizes above one word, wrap the reference stream semantics with
/// [`crate::LastLineDeCache`] instead: a bare `DeCache` updates FSM state on
/// every reference, which destroys the loop patterns the FSM recognizes —
/// exactly the problem Section 6 of the paper describes.
///
/// # Examples
///
/// ```
/// use dynex::DeCache;
/// use dynex_cache::{run_addrs, CacheConfig, CacheSim};
///
/// // The loop-level pattern (a^4 b)^3: b only interrupts, so b is excluded.
/// let mut de = DeCache::new(CacheConfig::direct_mapped(64, 4)?);
/// let mut refs = Vec::new();
/// for _ in 0..3 {
///     refs.extend([0u32; 4]); // a
///     refs.push(64);          // b, conflicting
/// }
/// let stats = run_addrs(&mut de, refs);
/// assert_eq!(stats.misses(), 4); // a once + b three times; a is never evicted
/// assert_eq!(de.de_stats().bypasses, 3);
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeCache<S = PerfectStore, P: Probe = NoopProbe> {
    config: CacheConfig,
    lines: DeLines,
    store: S,
    stats: CacheStats,
    de_stats: DeStats,
    probe: P,
}

impl DeCache<PerfectStore> {
    /// Creates a DE cache with an unbounded ("in principle") hit-last store.
    pub fn new(config: CacheConfig) -> DeCache<PerfectStore> {
        DeCache::with_store(config, PerfectStore::new())
    }
}

impl<P: Probe> DeCache<PerfectStore, P> {
    /// Creates a DE cache with an unbounded store, emitting events into
    /// `probe`.
    pub fn with_probe(config: CacheConfig, probe: P) -> DeCache<PerfectStore, P> {
        DeCache::with_store_and_probe(config, PerfectStore::new(), probe)
    }
}

impl<S: HitLastStore> DeCache<S> {
    /// Creates a DE cache over a caller-provided hit-last store.
    pub fn with_store(config: CacheConfig, store: S) -> DeCache<S> {
        DeCache::with_store_and_probe(config, store, NoopProbe)
    }
}

impl<S: HitLastStore, P: Probe> DeCache<S, P> {
    /// Creates a DE cache over a caller-provided hit-last store, emitting
    /// events into `probe`.
    ///
    /// Emitted events: [`Event::Access`] per reference (cause
    /// [`Cause::Bypass`] for bypassed misses), plus the FSM and eviction
    /// events of [`crate::fsm::step_probed`] and
    /// [`DeLines::access_line_probed`].
    pub fn with_store_and_probe(config: CacheConfig, store: S, probe: P) -> DeCache<S, P> {
        DeCache {
            config,
            lines: DeLines::new(config),
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

    /// Dynamic-exclusion-specific counters.
    pub fn de_stats(&self) -> DeStats {
        self.de_stats
    }

    /// The hit-last store (for inspection in tests and experiments).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the probe (wrappers such as
    /// [`crate::LastLineDeCache`] emit their own events through it).
    pub(crate) fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the cache, returning the attached probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Whether the block containing `addr` is resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        self.lines
            .contains_line(self.lines.geometry().line_addr(addr))
    }

    /// The set index `line` maps to (used by wrappers to label events).
    pub(crate) fn set_of_line(&self, line: u32) -> u32 {
        self.lines.geometry().set_of_line(line)
    }

    /// Presents a *line address* (shared with [`crate::LastLineDeCache`]).
    pub(crate) fn access_line(&mut self, line: u32) -> AccessOutcome {
        let addr = line << self.lines.geometry().offset_bits();
        self.access_inner(line, addr)
    }

    fn access_inner(&mut self, line: u32, addr: u32) -> AccessOutcome {
        let h_pred = self.store.get(line);
        let event = self.lines.access_line_probed(line, h_pred, &mut self.probe);
        let set = self.lines.geometry().set_of_line(line);
        let (outcome, cause) = match event {
            DeEvent::Hit => (AccessOutcome::Hit, Cause::Resident),
            DeEvent::Loaded { victim } => {
                self.de_stats.loads += 1;
                let cause = match victim {
                    Some((victim_line, victim_h)) => {
                        self.store.set(victim_line, victim_h);
                        Cause::Replace
                    }
                    None => Cause::Cold,
                };
                (AccessOutcome::Miss, cause)
            }
            DeEvent::Bypassed => {
                self.de_stats.bypasses += 1;
                (AccessOutcome::Miss, Cause::Bypass)
            }
        };
        self.probe.emit(Event::Access {
            addr,
            set,
            outcome: outcome.into(),
            cause,
        });
        self.stats.record(outcome);
        outcome
    }
}

impl<S: HitLastStore, P: Probe> CacheSim for DeCache<S, P> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.lines.geometry().line_addr(addr);
        self.access_inner(line, addr)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!("{} (dynamic exclusion)", self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HashedStore;
    use dynex_cache::{run_addrs, DirectMapped};

    fn config(size: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, 4).unwrap()
    }

    /// Addresses for two conflicting blocks in a 64B cache.
    const A: u32 = 0;
    const B: u32 = 64;

    #[test]
    fn within_loop_pattern_halves_misses() {
        // (a b)^10: DM misses all 20; DE settles to a-hits/b-bypasses.
        let mut de = DeCache::new(config(64));
        let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { A } else { B }).collect();
        let stats = run_addrs(&mut de, addrs);
        assert_eq!(stats.misses(), 11); // cold a + 10 b misses
        assert_eq!(de.de_stats().bypasses, 10);
        assert_eq!(de.de_stats().loads, 1);
    }

    #[test]
    fn conflict_between_loops_matches_optimal_after_training() {
        // (a^10 b^10)^10: optimal misses 20; DE within 2.
        let mut de = DeCache::new(config(64));
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.extend(std::iter::repeat_n(A, 10));
            addrs.extend(std::iter::repeat_n(B, 10));
        }
        let stats = run_addrs(&mut de, addrs);
        assert!(
            (20..=22).contains(&stats.misses()),
            "got {}",
            stats.misses()
        );
    }

    #[test]
    fn no_conflicts_behaves_like_conventional() {
        // Disjoint working set fitting the cache: DE must not add misses
        // beyond cold start.
        let cfg = config(256);
        let addrs: Vec<u32> = (0..64u32).map(|i| (i % 16) * 4).collect();
        let mut de = DeCache::new(cfg);
        let mut dm = DirectMapped::new(cfg);
        let de_stats = run_addrs(&mut de, addrs.iter().copied());
        let dm_stats = run_addrs(&mut dm, addrs);
        assert_eq!(de_stats.misses(), dm_stats.misses());
        assert_eq!(de.de_stats().bypasses, 0);
    }

    #[test]
    fn victim_hit_last_written_back_to_store() {
        let mut de = DeCache::new(config(64));
        // Load a, let it hit, then force it out via b (h[b] trained).
        run_addrs(&mut de, [A, A, B, B, A]);
        // Timeline: a load (h_copy=1), a hit, b bypass (s->0), b load
        // (victim a written back with h=1), a: sticky miss with h[a]=1 ->
        // load (victim b written back with h_copy=1).
        assert!(de.contains(A));
        assert!(!de.contains(B));
        assert!(
            de.store().get(B >> 2),
            "b's hit-last copy written back on displacement"
        );
        assert!(
            de.store().get(A >> 2),
            "a's bit from its first displacement"
        );
        assert_eq!(de.stats().misses(), 4);
    }

    #[test]
    fn hashed_store_variant_runs() {
        let cfg = config(64);
        let mut de = DeCache::with_store(cfg, HashedStore::new(cfg, 4));
        let addrs: Vec<u32> = (0..40).map(|i| if i % 2 == 0 { A } else { B }).collect();
        let stats = run_addrs(&mut de, addrs);
        // Only two blocks: no aliasing pressure, must match the perfect
        // store's behaviour.
        assert_eq!(stats.misses(), 21);
    }

    #[test]
    fn bypasses_plus_loads_equal_misses() {
        let mut de = DeCache::new(config(64));
        let mut rng = dynex_cache::SplitMix64::new(3);
        let addrs: Vec<u32> = (0..1000).map(|_| (rng.below(64) as u32) * 4).collect();
        let stats = run_addrs(&mut de, addrs);
        assert_eq!(de.de_stats().loads + de.de_stats().bypasses, stats.misses());
    }

    #[test]
    fn contains_tracks_residency_not_bypass() {
        let mut de = DeCache::new(config(64));
        de.access(A);
        de.access(B); // bypassed
        assert!(de.contains(A));
        assert!(!de.contains(B));
    }

    #[test]
    fn label_mentions_dynamic_exclusion() {
        assert!(DeCache::new(config(64))
            .label()
            .contains("dynamic exclusion"));
    }

    #[test]
    fn probe_counts_match_de_stats() {
        use dynex_obs::CountingProbe;
        let mut de = DeCache::with_probe(config(64), CountingProbe::new());
        let mut rng = dynex_cache::SplitMix64::new(9);
        let addrs: Vec<u32> = (0..2000).map(|_| (rng.below(64) as u32) * 4).collect();
        let stats = run_addrs(&mut de, addrs);
        let counts = de.probe().counts();
        assert_eq!(counts.accesses, stats.accesses());
        assert_eq!(counts.hits, stats.hits());
        assert_eq!(counts.misses, stats.misses());
        assert_eq!(counts.exclusion_loads, de.de_stats().loads);
        assert_eq!(counts.exclusion_bypasses, de.de_stats().bypasses);
        assert!(counts.evictions <= counts.exclusion_loads);
    }

    #[test]
    fn probe_attributes_bypasses() {
        use dynex_obs::{Cause, Event, EventLog, Outcome};
        let mut de = DeCache::with_probe(config(64), EventLog::new());
        run_addrs(&mut de, [A, B]); // cold load, bypass
        let events = de.into_probe().into_events();
        let bypassed = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Access {
                        outcome: Outcome::Miss,
                        cause: Cause::Bypass,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(bypassed, 1);
    }

    /// The fast kernel's DE points must replicate this cache bit-for-bit:
    /// same statistics, same load/bypass split, and the same event stream in
    /// the same order. This is the unit-level anchor of the differential
    /// wall in `tests/kernel_differential.rs`.
    #[test]
    fn batch_kernel_matches_reference_events_and_stats() {
        use dynex_cache::{batch_sweep_probed, run_addrs, SplitMix64, SweepPoint, SweepPolicy};
        use dynex_obs::EventLog;
        for (seed, span, size) in [(17u64, 64u64, 64u32), (18, 512, 256), (19, 4096, 1024)] {
            let cfg = CacheConfig::direct_mapped(size, 4).unwrap();
            let mut rng = SplitMix64::new(seed);
            let addrs: Vec<u32> = (0..5000).map(|_| (rng.below(span) as u32) * 4).collect();

            let mut reference = DeCache::with_probe(cfg, EventLog::new());
            let ref_stats = run_addrs(&mut reference, addrs.iter().copied());
            let ref_de = reference.de_stats();
            let ref_events = reference.into_probe().into_events();

            let mut logs = [EventLog::new()];
            let point = SweepPoint::new(cfg, SweepPolicy::DynamicExclusion);
            let batch = batch_sweep_probed(&[point], &addrs, &mut logs)[0]
                .de()
                .expect("a DE point reports DE counters");
            let [log] = logs;
            assert_eq!(batch.stats, ref_stats, "seed {seed}");
            assert_eq!(batch.loads, ref_de.loads, "seed {seed}");
            assert_eq!(batch.bypasses, ref_de.bypasses, "seed {seed}");
            assert_eq!(log.into_events(), ref_events, "seed {seed}");
        }
    }

    #[test]
    fn probed_and_bare_runs_are_identical() {
        use dynex_obs::CountingProbe;
        let cfg = config(64);
        let mut bare = DeCache::new(cfg);
        let mut probed = DeCache::with_probe(cfg, CountingProbe::new());
        let mut rng = dynex_cache::SplitMix64::new(13);
        for _ in 0..3000 {
            let a = (rng.below(96) as u32) * 4;
            assert_eq!(bare.access(a), probed.access(a));
        }
        assert_eq!(bare.stats(), probed.stats());
        assert_eq!(bare.de_stats(), probed.de_stats());
    }
}
