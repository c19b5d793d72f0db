//! A small deterministic PRNG, re-exported for the workload generator, the
//! request mix and seeded tests.

/// SplitMix64: a tiny, fast, well-distributed 64-bit PRNG.
///
/// Chosen over a `rand` dependency so that simulation results and generated
/// traces are bit-reproducible regardless of external crate versions. Not
/// cryptographic.
///
/// # Examples
///
/// ```
/// use dynex_cache::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a nonzero bound");
        // Multiplication-based bounded sampling (Lemire); bias is negligible
        // for the bounds used in simulation (< 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero bound")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn below_covers_range() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.below_usize(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be reachable");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(11);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SplitMix64::new(13);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }
}
