//! Where the hit-last bits of non-resident blocks live (Section 5).
//!
//! "In principle, there is one hit-last bit in memory associated with each
//! instruction. In practice, this is impossible" — the paper therefore
//! studies bounded stores. [`PerfectStore`] models the in-principle version
//! (used by the single-level Figures 3–5 and 11–15); [`HashedStore`] models
//! the practical k-bits-per-line tagless table ("the hashing strategy needs
//! only four hit-last bits for each cache line"); the L2-backed strategies
//! live in [`crate::DeHierarchy`] because they interact with cache contents.

use std::collections::HashMap;

use dynex_cache::CacheConfig;

/// Storage for hit-last bits of blocks that are not resident in the L1
/// cache.
///
/// Implementations are consulted on every L1 miss (`get`) and updated when a
/// block is displaced from L1 (`set`, carrying the resident copy back).
pub trait HitLastStore {
    /// The predicted hit-last bit for the block at `line_addr`.
    fn get(&self, line_addr: u32) -> bool;

    /// Records the hit-last bit for the block at `line_addr`.
    fn set(&mut self, line_addr: u32, value: bool);
}

/// An unbounded hit-last store: one exact bit per block ever seen.
///
/// Blocks never seen before report the configurable initial value
/// (default `false`, i.e. "has not hit"; the paper's FSM walk-throughs cover
/// both initializations and converge within two misses either way).
///
/// # Examples
///
/// ```
/// use dynex::{HitLastStore, PerfectStore};
///
/// let mut store = PerfectStore::new();
/// assert!(!store.get(0x99));
/// store.set(0x99, true);
/// assert!(store.get(0x99));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PerfectStore {
    bits: HashMap<u32, bool>,
    initial: bool,
}

impl PerfectStore {
    /// Creates a store where unseen blocks report `false`.
    pub fn new() -> PerfectStore {
        PerfectStore::default()
    }

    /// Creates a store where unseen blocks report `initial`.
    pub fn with_initial(initial: bool) -> PerfectStore {
        PerfectStore {
            bits: HashMap::new(),
            initial,
        }
    }

    /// Number of blocks with a recorded bit.
    pub fn tracked_blocks(&self) -> usize {
        self.bits.len()
    }
}

// The store sits on every DE miss of simulators instantiated in other
// crates; `#[inline]` lets each of them inline it instead of depending on
// link-time import decisions, which shift with unrelated code.
impl HitLastStore for PerfectStore {
    #[inline]
    fn get(&self, line_addr: u32) -> bool {
        *self.bits.get(&line_addr).unwrap_or(&self.initial)
    }

    #[inline]
    fn set(&mut self, line_addr: u32, value: bool) {
        self.bits.insert(line_addr, value);
    }
}

/// A tagless table of `k` hit-last bits per cache line, indexed by the
/// block's set plus a hash of its tag.
///
/// Distinct blocks can alias onto the same bit; the paper observes that four
/// bits per line recover almost all of the perfect store's benefit (because
/// an L2 four times the L1 size catches most L1 misses — same working-set
/// argument). The `ablate-hashwidth` experiment sweeps `k`.
///
/// # Examples
///
/// ```
/// use dynex::{HashedStore, HitLastStore};
/// use dynex_cache::CacheConfig;
///
/// let config = CacheConfig::direct_mapped(1024, 4)?;
/// let mut store = HashedStore::new(config, 4);
/// store.set(0x123, true);
/// assert!(store.get(0x123));
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashedStore {
    bits: Vec<bool>,
    set_mask: u32,
    index_bits: u32,
    ways: u32,
}

impl HashedStore {
    /// Creates an all-false table with `bits_per_line` entries per cache
    /// line of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_line` is zero or not a power of two.
    pub fn new(config: CacheConfig, bits_per_line: u32) -> HashedStore {
        assert!(
            bits_per_line > 0 && bits_per_line.is_power_of_two(),
            "bits_per_line must be a nonzero power of two"
        );
        let sets = config.n_sets();
        HashedStore {
            bits: vec![false; (sets * bits_per_line) as usize],
            set_mask: sets - 1,
            index_bits: sets.trailing_zeros(),
            ways: bits_per_line,
        }
    }

    /// Bits per cache line in this table.
    pub fn bits_per_line(&self) -> u32 {
        self.ways
    }

    /// Total storage in bits.
    pub fn total_bits(&self) -> usize {
        self.bits.len()
    }

    fn slot(&self, line_addr: u32) -> usize {
        let set = line_addr & self.set_mask;
        let tag = line_addr >> self.index_bits;
        // Cheap tag mix so nearby tags spread across the k ways.
        let way = (tag ^ (tag >> 7) ^ (tag >> 13)) & (self.ways - 1);
        (set * self.ways + way) as usize
    }
}

impl HitLastStore for HashedStore {
    #[inline]
    fn get(&self, line_addr: u32) -> bool {
        self.bits[self.slot(line_addr)]
    }

    #[inline]
    fn set(&mut self, line_addr: u32, value: bool) {
        let slot = self.slot(line_addr);
        self.bits[slot] = value;
    }
}

/// A [`HitLastStore`] wrapper that emits
/// [`Event::HitLastUpdate`](dynex_obs::Event::HitLastUpdate) for every write
/// to the underlying store.
///
/// The FSM-level events ([`crate::fsm::step_probed`]) describe *logical*
/// updates of `h[x]`; this wrapper additionally observes the *physical*
/// write-back path — the Figure 6 "transfer on replacement" traffic into
/// whatever store holds non-resident bits.
///
/// # Examples
///
/// ```
/// use dynex::{HitLastStore, PerfectStore, ProbedStore};
/// use dynex_obs::EventLog;
///
/// let mut store = ProbedStore::new(PerfectStore::new(), EventLog::new());
/// store.set(0x40, true);
/// assert_eq!(store.probe().events().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProbedStore<S: HitLastStore, P: dynex_obs::Probe> {
    inner: S,
    probe: P,
}

impl<S: HitLastStore, P: dynex_obs::Probe> ProbedStore<S, P> {
    /// Wraps `inner`, sending one event per `set` call to `probe`.
    pub fn new(inner: S, probe: P) -> ProbedStore<S, P> {
        ProbedStore { inner, probe }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the wrapper, returning the store and the probe.
    pub fn into_parts(self) -> (S, P) {
        (self.inner, self.probe)
    }
}

impl<S: HitLastStore, P: dynex_obs::Probe> HitLastStore for ProbedStore<S, P> {
    fn get(&self, line_addr: u32) -> bool {
        self.inner.get(line_addr)
    }

    fn set(&mut self, line_addr: u32, value: bool) {
        self.probe.emit(dynex_obs::Event::HitLastUpdate {
            line: line_addr,
            hit_last: value,
        });
        self.inner.set(line_addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_store_records_exactly() {
        let mut s = PerfectStore::new();
        assert!(!s.get(1));
        s.set(1, true);
        s.set(2, false);
        assert!(s.get(1));
        assert!(!s.get(2));
        assert_eq!(s.tracked_blocks(), 2);
        s.set(1, false);
        assert!(!s.get(1));
        assert_eq!(s.tracked_blocks(), 2);
    }

    #[test]
    fn perfect_store_initial_value() {
        let s = PerfectStore::with_initial(true);
        assert!(s.get(0xabc));
        let mut s = PerfectStore::with_initial(true);
        s.set(0xabc, false);
        assert!(!s.get(0xabc));
    }

    #[test]
    fn hashed_store_roundtrips_within_capacity() {
        let config = CacheConfig::direct_mapped(256, 4).unwrap(); // 64 lines
        let mut s = HashedStore::new(config, 4);
        assert_eq!(s.total_bits(), 256);
        // One block per set: no aliasing possible.
        for line in 0u32..64 {
            s.set(line, line % 2 == 0);
        }
        for line in 0u32..64 {
            assert_eq!(s.get(line), line % 2 == 0);
        }
    }

    #[test]
    fn hashed_store_aliases_when_overcommitted() {
        let config = CacheConfig::direct_mapped(16, 4).unwrap(); // 4 lines
        let mut s = HashedStore::new(config, 1);
        // Many blocks in one set with 1 bit: all alias.
        s.set(0, true);
        assert!(s.get(0));
        s.set(4, false); // same set (4 lines), same single bit
        assert!(!s.get(0), "1-bit table must alias conflicting tags");
    }

    #[test]
    fn hashed_store_spreads_tags_across_ways() {
        let config = CacheConfig::direct_mapped(16, 4).unwrap(); // 4 sets
        let s = HashedStore::new(config, 4);
        // Blocks in the same set with different tags should not all land on
        // one way.
        let slots: std::collections::HashSet<usize> = (0..16).map(|t| s.slot(t * 4)).collect();
        assert!(
            slots.len() >= 3,
            "tag hash should use multiple ways, got {slots:?}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hashed_store_rejects_bad_width() {
        HashedStore::new(CacheConfig::direct_mapped(64, 4).unwrap(), 3);
    }

    #[test]
    fn store_trait_objects_work() {
        let mut perfect = PerfectStore::new();
        let store: &mut dyn HitLastStore = &mut perfect;
        store.set(9, true);
        assert!(store.get(9));
    }

    #[test]
    fn probed_store_observes_writes_transparently() {
        use dynex_obs::CountingProbe;
        let mut store = ProbedStore::new(PerfectStore::new(), CountingProbe::new());
        store.set(3, true);
        store.set(5, false);
        assert!(store.get(3));
        assert!(!store.get(5));
        assert_eq!(store.probe().counts().hit_last_updates, 2);
        let (inner, probe) = store.into_parts();
        assert!(inner.get(3));
        assert_eq!(probe.counts().hit_last_updates, 2);
    }

    #[test]
    fn probed_store_composes_with_de_cache() {
        use crate::DeCache;
        use dynex_cache::{CacheConfig, CacheSim};
        use dynex_obs::CountingProbe;
        let cfg = CacheConfig::direct_mapped(64, 4).unwrap();
        let mut bare = DeCache::new(cfg);
        let mut observed = DeCache::with_store(
            cfg,
            ProbedStore::new(PerfectStore::new(), CountingProbe::new()),
        );
        let mut rng = dynex_cache::SplitMix64::new(23);
        for _ in 0..2000 {
            let a = (rng.below(64) as u32) * 4;
            assert_eq!(bare.access(a), observed.access(a));
        }
        assert_eq!(bare.stats(), observed.stats());
        // Every store write is a displaced victim; loads displacing a valid
        // block bound the write count.
        let writes = observed.store().probe().counts().hit_last_updates;
        assert!(writes <= observed.de_stats().loads);
        assert!(writes > 0);
    }
}
