//! Property tests: structural laws every cache organization must obey.

// Gated: requires the `proptest` feature (and the proptest dev-dependency,
// unavailable in hermetic builds) to compile.
#![cfg(feature = "proptest")]

use dynex_cache::{
    classify_direct_mapped, run_addrs, CacheConfig, CacheSim, DirectMapped, FullyAssociative,
    SetAssociative, StreamBuffer, TwoLevel, VictimCache,
};
use proptest::prelude::*;

/// Word-aligned addresses in a smallish region so conflicts actually happen.
fn arb_addrs() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u32..2048).prop_map(|w| w * 4), 1..500)
}

fn arb_pow2(lo: u32, hi: u32) -> impl Strategy<Value = u32> {
    (lo.trailing_zeros()..=hi.trailing_zeros()).prop_map(|b| 1 << b)
}

proptest! {
    /// A 1-way set-associative cache is exactly a direct-mapped cache.
    #[test]
    fn one_way_equals_direct_mapped(
        addrs in arb_addrs(),
        size in arb_pow2(64, 4096),
        line in arb_pow2(4, 32),
    ) {
        let config = CacheConfig::direct_mapped(size, line).unwrap();
        let mut dm = DirectMapped::new(config);
        let mut sa = SetAssociative::new(config);
        for &a in &addrs {
            prop_assert_eq!(dm.access(a), sa.access(a));
        }
    }

    /// Doubling associativity at fixed capacity never increases misses under
    /// LRU on *this* substrate... not true in general (Belady's anomaly is
    /// FIFO-only; LRU is a stack algorithm per set but sets change with
    /// associativity). So we assert the weaker, always-true law: a
    /// fully-associative LRU cache of equal capacity never has more misses
    /// than repeats of the same block count... also subtle. Instead: the
    /// fully-associative LRU cache is exactly inclusion-monotone in size.
    #[test]
    fn fully_associative_lru_misses_monotone_in_size(
        addrs in arb_addrs(),
        line in arb_pow2(4, 16),
    ) {
        // LRU is a stack algorithm: a bigger fully-associative LRU cache
        // never misses more.
        let mut small = FullyAssociative::new(256, line).unwrap();
        let mut big = FullyAssociative::new(1024, line).unwrap();
        let s = run_addrs(&mut small, addrs.iter().copied());
        let b = run_addrs(&mut big, addrs.iter().copied());
        prop_assert!(b.misses() <= s.misses());
    }

    /// Victim caches never take more misses than the bare direct-mapped cache.
    #[test]
    fn victim_never_hurts(addrs in arb_addrs(), entries in 1usize..8) {
        let config = CacheConfig::direct_mapped(256, 4).unwrap();
        let mut dm = DirectMapped::new(config);
        let mut vc = VictimCache::new(config, entries);
        let d = run_addrs(&mut dm, addrs.iter().copied());
        let v = run_addrs(&mut vc, addrs.iter().copied());
        prop_assert!(v.misses() <= d.misses());
        prop_assert_eq!(v.accesses(), d.accesses());
    }

    /// Stream buffers never take more memory fetches than the bare cache.
    #[test]
    fn stream_buffer_never_hurts(addrs in arb_addrs(), depth in 1usize..8) {
        let config = CacheConfig::direct_mapped(256, 4).unwrap();
        let mut dm = DirectMapped::new(config);
        let mut sb = StreamBuffer::new(config, depth);
        let d = run_addrs(&mut dm, addrs.iter().copied());
        let s = run_addrs(&mut sb, addrs.iter().copied());
        prop_assert!(s.misses() <= d.misses());
    }

    /// In a hierarchy, L2 accesses equal L1 misses, and a same-size,
    /// same-line L2 behind a DM L1 misses on every access (contents shadow).
    #[test]
    fn hierarchy_accounting(addrs in arb_addrs()) {
        let config = CacheConfig::direct_mapped(128, 4).unwrap();
        let mut h = TwoLevel::new(DirectMapped::new(config), DirectMapped::new(config));
        run_addrs(&mut h, addrs.iter().copied());
        let s = h.hierarchy_stats();
        prop_assert_eq!(s.l2.accesses(), s.l1.misses());
        // Identical geometry => identical contents => every L1 miss also
        // misses in L2.
        prop_assert_eq!(s.l2.misses(), s.l2.accesses());
    }

    /// Hits never change what `contains` reports; misses always install the
    /// line in a direct-mapped cache.
    #[test]
    fn direct_mapped_install_invariant(addrs in arb_addrs()) {
        let mut dm = DirectMapped::new(CacheConfig::direct_mapped(128, 8).unwrap());
        for &a in &addrs {
            dm.access(a);
            prop_assert!(dm.contains(a), "referenced block must be resident");
        }
    }

    /// Hill's three-C split reconciles with the direct-mapped miss count,
    /// and every miss of the fully-associative LRU shadow is compulsory,
    /// capacity or anti-conflict.
    #[test]
    fn lru_classification_reconciles(addrs in arb_addrs()) {
        let config = CacheConfig::direct_mapped(128, 4).unwrap();
        let mut dm = DirectMapped::new(config);
        let dm_stats = run_addrs(&mut dm, addrs.iter().copied());
        let mut fa = FullyAssociative::new(128, 4).unwrap();
        let fa_stats = run_addrs(&mut fa, addrs.iter().copied());

        let classes = classify_direct_mapped(config, addrs.iter().copied());
        prop_assert_eq!(classes.total_misses(), dm_stats.misses());
        prop_assert_eq!(classes.accesses, dm_stats.accesses());
        prop_assert_eq!(
            classes.compulsory + classes.capacity + classes.anti_conflict,
            fa_stats.misses()
        );
    }

    /// Set-associative caches obey LRU inclusion within the same geometry:
    /// doubling the *number of ways while doubling capacity* (same set count)
    /// never increases misses.
    #[test]
    fn lru_inclusion_same_sets(addrs in arb_addrs()) {
        // 32 sets in both: 128B direct-mapped vs 256B 2-way.
        let narrow = CacheConfig::direct_mapped(128, 4).unwrap();
        let wide = CacheConfig::new(256, 4, 2).unwrap();
        prop_assert_eq!(narrow.n_sets(), wide.n_sets());
        let mut a = SetAssociative::new(narrow);
        let mut b = SetAssociative::new(wide);
        let sa = run_addrs(&mut a, addrs.iter().copied());
        let sb = run_addrs(&mut b, addrs.iter().copied());
        prop_assert!(sb.misses() <= sa.misses());
    }
}
