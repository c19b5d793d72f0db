//! Set-associative caches with pluggable replacement.

use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::{AccessOutcome, CacheConfig, CacheSim, CacheStats, Geometry, SplitMix64};

/// Replacement policy for [`SetAssociative`] caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict the least recently used line.
    #[default]
    Lru,
    /// Evict the line resident longest (insertion order).
    Fifo,
    /// Evict a pseudo-random line (deterministic, seeded).
    Random,
}

impl Replacement {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Replacement::Lru => "LRU",
            Replacement::Fifo => "FIFO",
            Replacement::Random => "random",
        }
    }
}

/// A set-associative cache.
///
/// Each set holds `associativity` lines managed by the chosen
/// [`Replacement`] policy. With `associativity == 1` this behaves exactly
/// like [`crate::DirectMapped`] (verified by property test); with one set it
/// is fully associative (see [`crate::FullyAssociative`]).
///
/// The paper cites set-associative caches as the miss-rate gold standard that
/// direct-mapped caches trade away for access time; this type provides that
/// comparison point.
///
/// Like every simulator in this crate it is generic over an observability
/// [`Probe`] (default [`NoopProbe`], which compiles to nothing); see
/// [`SetAssociative::with_probe`].
///
/// # Examples
///
/// ```
/// use dynex_cache::{CacheConfig, CacheSim, Replacement, SetAssociative};
///
/// let config = CacheConfig::new(64, 4, 2)?;
/// let mut cache = SetAssociative::new(config, Replacement::Lru);
/// cache.access(0x0);
/// cache.access(0x40); // same set, second way
/// assert!(cache.access(0x0).is_hit()); // both fit
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociative<P: Probe = NoopProbe> {
    config: CacheConfig,
    geometry: Geometry,
    policy: Replacement,
    /// Per set: resident line addresses, most recently used first (for LRU)
    /// or insertion order, newest first (for FIFO). Never exceeds
    /// associativity.
    sets: Vec<Vec<u32>>,
    rng: SplitMix64,
    stats: CacheStats,
    probe: P,
}

impl SetAssociative {
    /// Creates an empty cache with the given replacement policy.
    pub fn new(config: CacheConfig, policy: Replacement) -> SetAssociative {
        SetAssociative::with_seed(config, policy, 0x5eed_cafe)
    }

    /// Creates an empty cache seeding the random replacement policy.
    pub fn with_seed(config: CacheConfig, policy: Replacement, seed: u64) -> SetAssociative {
        SetAssociative::with_seed_and_probe(config, policy, seed, NoopProbe)
    }
}

impl<P: Probe> SetAssociative<P> {
    /// Creates an empty cache emitting events into `probe`.
    pub fn with_probe(config: CacheConfig, policy: Replacement, probe: P) -> SetAssociative<P> {
        SetAssociative::with_seed_and_probe(config, policy, 0x5eed_cafe, probe)
    }

    /// Creates an empty cache with both an RNG seed and a probe.
    pub fn with_seed_and_probe(
        config: CacheConfig,
        policy: Replacement,
        seed: u64,
        probe: P,
    ) -> SetAssociative<P> {
        SetAssociative {
            config,
            geometry: config.geometry(),
            policy,
            sets: vec![Vec::new(); config.n_sets() as usize],
            rng: SplitMix64::new(seed),
            stats: CacheStats::new(),
            probe,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the cache, returning the attached probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Whether the block containing `addr` is resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        let line = self.geometry.line_addr(addr);
        self.sets[self.geometry.set_of_line(line) as usize].contains(&line)
    }
}

impl<P: Probe> CacheSim for SetAssociative<P> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.geometry.line_addr(addr);
        let set = self.geometry.set_of_line(line) as usize;
        let ways = &mut self.sets[set];
        let outcome = match ways.iter().position(|&l| l == line) {
            Some(pos) => {
                if self.policy == Replacement::Lru {
                    // Move to front: index 0 is most recently used.
                    let hit = ways.remove(pos);
                    ways.insert(0, hit);
                }
                self.probe.emit(Event::Access {
                    addr,
                    set: set as u32,
                    outcome: Outcome::Hit,
                    cause: Cause::Resident,
                });
                AccessOutcome::Hit
            }
            None => {
                let cause = if ways.len() == self.config.associativity() as usize {
                    let victim = match self.policy {
                        // LRU & FIFO both evict the back (LRU keeps recency
                        // order, FIFO keeps insertion order).
                        Replacement::Lru | Replacement::Fifo => ways.pop().expect("set is full"),
                        Replacement::Random => {
                            let victim = self.rng.below_usize(ways.len());
                            ways.remove(victim)
                        }
                    };
                    self.probe.emit(Event::Eviction {
                        set: set as u32,
                        victim,
                        replacement: line,
                    });
                    Cause::Replace
                } else {
                    Cause::Cold
                };
                ways.insert(0, line);
                self.probe.emit(Event::Access {
                    addr,
                    set: set as u32,
                    outcome: Outcome::Miss,
                    cause,
                });
                AccessOutcome::Miss
            }
        };
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!("{} ({})", self.config, self.policy.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_addrs;

    fn two_way(size: u32) -> SetAssociative {
        SetAssociative::new(CacheConfig::new(size, 4, 2).unwrap(), Replacement::Lru)
    }

    #[test]
    fn two_way_absorbs_pairwise_conflicts() {
        // The thrashing pair of the direct-mapped test coexists here.
        let mut c = two_way(256);
        let stats = run_addrs(&mut c, (0..20).map(|i| if i % 2 == 0 { 0u32 } else { 256 }));
        assert_eq!(stats.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set: fill with a, b; touch a; insert c -> b evicted.
        let mut c = two_way(256);
        let (a, b, x) = (0u32, 256u32, 512u32);
        c.access(a);
        c.access(b);
        c.access(a);
        c.access(x); // evicts b under LRU
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(x));
    }

    #[test]
    fn fifo_evicts_oldest_resident() {
        let mut c = SetAssociative::new(CacheConfig::new(256, 4, 2).unwrap(), Replacement::Fifo);
        let (a, b, x) = (0u32, 256u32, 512u32);
        c.access(a);
        c.access(b);
        c.access(a); // hit: FIFO order unchanged
        c.access(x); // evicts a (oldest), not b
        assert!(!c.contains(a));
        assert!(c.contains(b));
        assert!(c.contains(x));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let config = CacheConfig::new(256, 4, 2).unwrap();
        let addrs: Vec<u32> = (0..200).map(|i| (i % 5) * 256).collect();
        let mut a = SetAssociative::with_seed(config, Replacement::Random, 1);
        let mut b = SetAssociative::with_seed(config, Replacement::Random, 1);
        assert_eq!(
            run_addrs(&mut a, addrs.iter().copied()),
            run_addrs(&mut b, addrs)
        );
    }

    #[test]
    fn one_way_matches_direct_mapped() {
        let config = CacheConfig::direct_mapped(512, 8).unwrap();
        let mut sa = SetAssociative::new(config, Replacement::Lru);
        let mut dm = crate::DirectMapped::new(config);
        let mut rng = SplitMix64::new(99);
        for _ in 0..2000 {
            let addr = (rng.below(4096) as u32) & !3;
            assert_eq!(sa.access(addr), dm.access(addr));
        }
        assert_eq!(sa.stats(), dm.stats());
    }

    #[test]
    fn associativity_never_exceeded() {
        let config = CacheConfig::new(64, 4, 4).unwrap(); // 4 sets of 4
        let mut c = SetAssociative::new(config, Replacement::Lru);
        let mut rng = SplitMix64::new(5);
        for _ in 0..1000 {
            c.access((rng.below(1 << 14) as u32) & !3);
        }
        for set in &c.sets {
            assert!(set.len() <= 4);
        }
    }

    #[test]
    fn label_mentions_policy() {
        assert!(two_way(256).label().contains("LRU"));
        let r = SetAssociative::new(CacheConfig::new(256, 4, 2).unwrap(), Replacement::Random);
        assert!(r.label().contains("random"));
    }

    #[test]
    fn probe_distinguishes_cold_fills_from_evictions() {
        use dynex_obs::CountingProbe;
        let config = CacheConfig::new(256, 4, 2).unwrap();
        let mut c = SetAssociative::with_probe(config, Replacement::Lru, CountingProbe::new());
        // Fill one set (2 cold misses), hit, then overflow it (1 eviction).
        run_addrs(&mut c, [0u32, 256, 0, 512]);
        let counts = c.probe().counts();
        assert_eq!(counts.accesses, 4);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 3);
        assert_eq!(counts.evictions, 1);
    }

    #[test]
    fn probed_and_bare_stats_agree_for_each_policy() {
        use dynex_obs::CountingProbe;
        let config = CacheConfig::new(512, 4, 4).unwrap();
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut bare = SetAssociative::new(config, policy);
            let mut probed = SetAssociative::with_probe(config, policy, CountingProbe::new());
            let mut rng = SplitMix64::new(7);
            for _ in 0..3000 {
                let a = (rng.below(8192) as u32) & !3;
                assert_eq!(bare.access(a), probed.access(a));
            }
            assert_eq!(bare.stats(), probed.stats());
            let counts = probed.probe().counts();
            assert_eq!(counts.accesses, probed.stats().accesses());
            assert_eq!(counts.misses, probed.stats().misses());
            assert!(counts.evictions <= counts.misses);
        }
    }
}
