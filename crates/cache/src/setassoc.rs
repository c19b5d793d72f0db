//! Set-associative caches with LRU replacement.

use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::{AccessOutcome, CacheConfig, CacheSim, CacheStats, Geometry};

/// A set-associative cache with least-recently-used replacement.
///
/// Each set holds `associativity` lines in recency order. With
/// `associativity == 1` this behaves exactly like [`crate::DirectMapped`]
/// (verified by test); with one set it is fully associative (see
/// [`crate::FullyAssociative`]).
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
/// use dynex_cache::{CacheConfig, CacheSim, SetAssociative};
///
/// let config = CacheConfig::new(64, 4, 2)?;
/// let mut cache = SetAssociative::new(config);
/// cache.access(0x0);
/// cache.access(0x40); // same set, second way
/// assert!(cache.access(0x0).is_hit()); // both fit
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociative<P: Probe = NoopProbe> {
    config: CacheConfig,
    geometry: Geometry,
    /// Per set: resident line addresses, most recently used first. Never
    /// exceeds associativity.
    sets: Vec<Vec<u32>>,
    stats: CacheStats,
    probe: P,
}

impl SetAssociative {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> SetAssociative {
        SetAssociative::with_probe(config, NoopProbe)
    }
}

impl<P: Probe> SetAssociative<P> {
    /// Creates an empty cache emitting events into `probe`.
    pub fn with_probe(config: CacheConfig, probe: P) -> SetAssociative<P> {
        SetAssociative {
            config,
            geometry: config.geometry(),
            sets: vec![Vec::new(); config.n_sets() as usize],
            stats: CacheStats::new(),
            probe,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
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
                // Move to front: index 0 is most recently used.
                let hit = ways.remove(pos);
                ways.insert(0, hit);
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
                    // The back of the recency order is least recently used.
                    let victim = ways.pop().expect("set is full");
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
        format!("{} (LRU)", self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_addrs;

    fn two_way(size: u32) -> SetAssociative {
        SetAssociative::new(CacheConfig::new(size, 4, 2).unwrap())
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
    fn one_way_matches_direct_mapped() {
        let config = CacheConfig::direct_mapped(512, 8).unwrap();
        let mut sa = SetAssociative::new(config);
        let mut dm = crate::DirectMapped::new(config);
        let mut rng = crate::SplitMix64::new(99);
        for _ in 0..2000 {
            let addr = (rng.below(4096) as u32) & !3;
            assert_eq!(sa.access(addr), dm.access(addr));
        }
        assert_eq!(sa.stats(), dm.stats());
    }

    #[test]
    fn associativity_never_exceeded() {
        let config = CacheConfig::new(64, 4, 4).unwrap(); // 4 sets of 4
        let mut c = SetAssociative::new(config);
        let mut rng = crate::SplitMix64::new(5);
        for _ in 0..1000 {
            c.access((rng.below(1 << 14) as u32) & !3);
        }
        for set in &c.sets {
            assert!(set.len() <= 4);
        }
    }

    #[test]
    fn label_mentions_policy() {
        assert_eq!(two_way(1024).label(), "1KB 2-way, 4B lines (LRU)");
    }

    #[test]
    fn probe_distinguishes_cold_fills_from_evictions() {
        use dynex_obs::CountingProbe;
        let config = CacheConfig::new(256, 4, 2).unwrap();
        let mut c = SetAssociative::with_probe(config, CountingProbe::new());
        // Fill one set (2 cold misses), hit, then overflow it (1 eviction).
        run_addrs(&mut c, [0u32, 256, 0, 512]);
        let counts = c.probe().counts();
        assert_eq!(counts.accesses, 4);
        assert_eq!(counts.hits, 1);
        assert_eq!(counts.misses, 3);
        assert_eq!(counts.evictions, 1);
    }

    #[test]
    fn probed_and_bare_stats_agree() {
        use dynex_obs::CountingProbe;
        let config = CacheConfig::new(512, 4, 4).unwrap();
        let mut bare = SetAssociative::new(config);
        let mut probed = SetAssociative::with_probe(config, CountingProbe::new());
        let mut rng = crate::SplitMix64::new(7);
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
