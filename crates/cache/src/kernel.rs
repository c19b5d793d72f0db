//! Building blocks of the fast kernels: the sweep kernel in
//! [`crate::sweep`], which runs every direct-mapped policy, and the
//! hierarchy kernel in `dynex-core`.
//!
//! The reference simulators ([`crate::DirectMapped`], the DE cache in
//! `dynex-core`, and its optimal oracle) are written for clarity: one
//! `access()` call per reference, a branchy FSM, and a `HashMap`-backed
//! hit-last store. The pieces in this module trade none of the semantics
//! for throughput:
//!
//! * **table-driven FSM** — the eight-entry Figure 1 transition table is
//!   precomputed into [`DE_FSM_TABLE`]; one load replaces the FSM's branch
//!   chain. The table is an *independent* re-derivation of the paper's
//!   Figure 1; the `dynex-core` test suite drives it in lockstep against the
//!   spec `fsm::step` over all eight `(hit, sticky, hit_last)` inputs.
//! * **flat hit-last bitmaps** — the sweep's DE points replace the perfect
//!   store's `HashMap<u32, bool>` with a bitmap over the trace's
//!   line-address range ([`hit_last_words`], [`hit_last_bit`],
//!   [`set_hit_last_bit`]; identical semantics: both start all-false and
//!   are written only on displacement), and its bandwidth-cost points keep
//!   their per-line reuse bits in the same layout. [`HitLastArena`] is the
//!   growable form, which the bandwidth-cost spec policy uses.
//! * **chunked decode** — [`decode_chunk`] turns one chunk of byte addresses
//!   into a reusable line-address buffer (see [`crate::batch`]).
//! * **32-bit positions** — the forward OPT rule and the EHC window keep
//!   trace positions and use counts in `u32` slots of a `LineTable`, one
//!   per touched line; [`assert_positions_fit`] guards the trace length
//!   they assume.
//!
//! The kernels built from them are **bit-identical** to their reference
//! simulators and report through the same types, [`CacheStats`] and (for
//! DE) [`DeStats`]; `tests/kernel_differential.rs` at the repository root
//! enforces this across workload profiles, cache geometries, and worker
//! counts.
//!
//! [`CacheStats`]: crate::CacheStats
//! [`DeStats`]: crate::DeStats

use crate::batch::CHUNK_LEN;

/// One row of the precomputed dynamic-exclusion transition table
/// (Figure 1 of the paper), indexed by [`de_fsm_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeFsmRow {
    /// The reference misses (the block is loaded or bypassed).
    pub is_miss: bool,
    /// The referenced block is installed, displacing the resident block.
    pub installs: bool,
    /// New value of the line's sticky bit.
    pub sticky_after: bool,
    /// Whether the referenced block's hit-last bit is written.
    pub writes_hit_last: bool,
    /// The value written when `writes_hit_last` is set.
    pub hit_last_value: bool,
}

/// Table index for one `(hit, sticky, hit_last)` input combination.
pub const fn de_fsm_index(hit: bool, sticky: bool, hit_last: bool) -> usize {
    ((hit as usize) << 2) | ((sticky as usize) << 1) | (hit_last as usize)
}

/// One transition of Figure 1, re-derived independently of
/// `dynex::fsm::step` (the lockstep tests in `dynex-core` prove the two
/// implementations identical):
///
/// * hit → serve, re-arm sticky, set the block's hit-last bit;
/// * miss on a non-sticky line → load unconditionally (the paper's anomaly
///   row: the incoming block's hit-last bit is set although it did not hit);
/// * miss on a sticky line with the block's hit-last bit set → load, and
///   consume the bit (one residency to prove itself);
/// * miss on a sticky line without the bit → bypass and spend the line's
///   inertia (clear sticky).
const fn de_fsm_row(hit: bool, sticky: bool, hit_last: bool) -> DeFsmRow {
    if hit {
        DeFsmRow {
            is_miss: false,
            installs: false,
            sticky_after: true,
            writes_hit_last: true,
            hit_last_value: true,
        }
    } else if !sticky {
        DeFsmRow {
            is_miss: true,
            installs: true,
            sticky_after: true,
            writes_hit_last: true,
            hit_last_value: true,
        }
    } else if hit_last {
        DeFsmRow {
            is_miss: true,
            installs: true,
            sticky_after: true,
            writes_hit_last: true,
            hit_last_value: false,
        }
    } else {
        DeFsmRow {
            is_miss: true,
            installs: false,
            sticky_after: false,
            writes_hit_last: false,
            hit_last_value: false,
        }
    }
}

/// The eight-entry Figure 1 transition table, precomputed at compile time.
///
/// Index with [`de_fsm_index`]`(hit, sticky, hit_last)`.
pub const DE_FSM_TABLE: [DeFsmRow; 8] = {
    let mut table = [de_fsm_row(false, false, false); 8];
    let mut i = 0;
    while i < 8 {
        table[i] = de_fsm_row((i >> 2) & 1 == 1, (i >> 1) & 1 == 1, i & 1 == 1);
        i += 1;
    }
    table
};

/// Flat arena for the hit-last bits of non-resident blocks: a bitmap over
/// `[0, max_line]`, semantically identical to the perfect store's
/// `HashMap<u32, bool>` (all bits start false; bits are written only when a
/// block is displaced, so absent and false are indistinguishable).
///
/// The capacity passed to [`HitLastArena::new`] is a *sizing hint* derived
/// from the caller's prescan of the trace (the largest line index any access
/// decodes to), never a hard limit: `get` beyond the allocated range reads
/// the store's all-false default and `set` grows the bitmap, so a
/// mis-derived capacity degrades to a reallocation instead of a panic.
/// Worst case (a reference near the top of the 30-bit line space) the arena
/// occupies 128 MiB; for the bounded footprints of the paper's workloads it
/// is a few KiB and every lookup is one shift-and-mask instead of a hash
/// probe.
#[derive(Debug, Clone)]
pub(crate) struct HitLastArena {
    words: Vec<u64>,
}

impl HitLastArena {
    /// Arena covering line addresses `[0, max_line]`; `max_line` comes from
    /// the kernel's trace prescan ([`max_line`]), not from a constant.
    pub(crate) fn new(max_line: u32) -> HitLastArena {
        HitLastArena {
            words: vec![0u64; hit_last_words(max_line)],
        }
    }

    #[inline]
    pub(crate) fn get(&self, line: u32) -> bool {
        hit_last_bit(&self.words, line)
    }

    #[inline]
    pub(crate) fn set(&mut self, line: u32, value: bool) {
        let index = line as usize >> 6;
        if index >= self.words.len() {
            self.words.resize(index + 1, 0);
        }
        set_hit_last_bit(&mut self.words, line, value);
    }
}

/// Words a hit-last bitmap over line addresses `[0, max_line]` needs.
pub(crate) fn hit_last_words(max_line: u32) -> usize {
    (max_line as usize >> 6) + 1
}

/// Bit `line` of a hit-last bitmap. Beyond the bitmap nothing has ever
/// been displaced, and the perfect store reads absent as false.
#[inline]
pub(crate) fn hit_last_bit(words: &[u64], line: u32) -> bool {
    match words.get(line as usize >> 6) {
        Some(word) => (word >> (line & 63)) & 1 == 1,
        None => false,
    }
}

/// Writes bit `line` of a hit-last bitmap.
///
/// # Panics
///
/// Panics if `line` lies beyond the bitmap.
#[inline]
pub(crate) fn set_hit_last_bit(words: &mut [u64], line: u32, value: bool) {
    let word = &mut words[line as usize >> 6];
    let bit = line & 63;
    *word = (*word & !(1u64 << bit)) | ((value as u64) << bit);
}

/// Decodes one chunk of byte addresses into the reusable line-address
/// buffer (the shift is the whole "decode": line = addr >> offset_bits).
#[inline]
pub(crate) fn decode_chunk(chunk: &[u32], offset_bits: u32, line_buf: &mut [u32; CHUNK_LEN]) {
    for (dst, &addr) in line_buf.iter_mut().zip(chunk) {
        *dst = addr >> offset_bits;
    }
}

/// Largest line address in the trace (0 for an empty trace); sizes the
/// hit-last arena.
pub(crate) fn max_line(addrs: &[u32], offset_bits: u32) -> u32 {
    addrs.iter().map(|&a| a >> offset_bits).max().unwrap_or(0)
}

/// Checks that every trace position, plus one, fits a `u32` below
/// `u32::MAX`: the forward OPT rule stores 1 + a position (0 meaning "no
/// earlier use") and the EHC window counts uses bounded by the trace length,
/// both in 32 bits, so a longer trace would wrap silently.
///
/// # Panics
///
/// Panics if the trace has `u32::MAX` or more references.
pub(crate) fn assert_positions_fit(len: usize) {
    assert!(
        len < u32::MAX as usize,
        "trace of {len} references is too long for the 32-bit positions of \
         the OPT and EHC kernels (at most {} references)",
        u32::MAX - 1
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        batch_sweep, batch_sweep_probed, run_addrs, CacheConfig, CacheStats, DeStats, DirectMapped,
        SplitMix64, SweepPoint, SweepPolicy,
    };
    use dynex_obs::Probe;

    fn config(size: u32, line: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, line).unwrap()
    }

    /// `policy` at `cfg` as a one-point sweep, observed by `probe`.
    fn alone_probed<P: Probe>(
        policy: SweepPolicy,
        cfg: CacheConfig,
        addrs: &[u32],
        probe: P,
    ) -> ((CacheStats, Option<DeStats>), P) {
        let mut probes = [probe];
        let results = batch_sweep_probed(&[SweepPoint::new(cfg, policy)], addrs, &mut probes);
        let [probe] = probes;
        (results[0], probe)
    }

    fn dm(cfg: CacheConfig, addrs: &[u32]) -> CacheStats {
        batch_sweep(&[SweepPoint::new(cfg, SweepPolicy::DirectMapped)], addrs)[0].0
    }

    fn de(cfg: CacheConfig, addrs: &[u32]) -> (CacheStats, DeStats) {
        let point = SweepPoint::new(cfg, SweepPolicy::DynamicExclusion);
        let (stats, de) = batch_sweep(&[point], addrs)[0];
        (stats, de.expect("a DE point reports DE counters"))
    }

    fn opt(cfg: CacheConfig, addrs: &[u32]) -> CacheStats {
        batch_sweep(&[SweepPoint::new(cfg, SweepPolicy::Optimal)], addrs)[0].0
    }

    /// dm, de and opt at one geometry in one three-point sweep.
    fn triple(cfg: CacheConfig, addrs: &[u32]) -> Vec<(CacheStats, Option<DeStats>)> {
        let points = [
            SweepPolicy::DirectMapped,
            SweepPolicy::DynamicExclusion,
            SweepPolicy::Optimal,
        ]
        .map(|policy| SweepPoint::new(cfg, policy));
        batch_sweep(&points, addrs)
    }

    fn random_addrs(seed: u64, len: usize, span: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| (rng.below(span) as u32) * 4).collect()
    }

    #[test]
    fn table_has_expected_shape() {
        // Hits never miss or install and always re-arm sticky.
        for hit_last in [false, true] {
            for sticky in [false, true] {
                let row = DE_FSM_TABLE[de_fsm_index(true, sticky, hit_last)];
                assert!(!row.is_miss && !row.installs && row.sticky_after);
                assert!(row.writes_hit_last && row.hit_last_value);
            }
        }
        // The anomaly row: unsticky miss loads and sets the bit.
        for hit_last in [false, true] {
            let row = DE_FSM_TABLE[de_fsm_index(false, false, hit_last)];
            assert!(row.is_miss && row.installs && row.sticky_after);
            assert!(row.writes_hit_last && row.hit_last_value);
        }
        // Sticky miss: arbitrated by hit-last.
        let load = DE_FSM_TABLE[de_fsm_index(false, true, true)];
        assert!(load.installs && load.sticky_after && load.writes_hit_last);
        assert!(!load.hit_last_value, "consumed on load");
        let bypass = DE_FSM_TABLE[de_fsm_index(false, true, false)];
        assert!(bypass.is_miss && !bypass.installs);
        assert!(!bypass.sticky_after && !bypass.writes_hit_last);
    }

    #[test]
    fn the_four_hit_rows_are_one_row() {
        // What lets the sweep kernel serve a hit before it reads the sticky
        // bit or the hit-last bitmap.
        let hit = DE_FSM_TABLE[de_fsm_index(true, false, false)];
        for sticky in [false, true] {
            for hit_last in [false, true] {
                assert_eq!(DE_FSM_TABLE[de_fsm_index(true, sticky, hit_last)], hit);
            }
        }
    }

    #[test]
    fn arena_is_a_bitmap_with_store_semantics() {
        let mut arena = HitLastArena::new(200);
        assert!(!arena.get(0) && !arena.get(200), "initially false");
        arena.set(63, true);
        arena.set(64, true);
        arena.set(200, true);
        assert!(arena.get(63) && arena.get(64) && arena.get(200));
        assert!(!arena.get(62) && !arena.get(65));
        arena.set(64, false);
        assert!(!arena.get(64), "clearable");
        assert!(arena.get(63), "neighbours untouched");
    }

    #[test]
    fn arena_capacity_is_a_hint_not_a_limit() {
        // Regression: line indices far beyond the sized capacity must read
        // as the store's all-false default and be settable (the bitmap
        // grows), never panic.
        let mut arena = HitLastArena::new(200);
        assert!(!arena.get(201) && !arena.get(100_000), "absent reads false");
        arena.set(100_000, true);
        assert!(arena.get(100_000));
        assert!(!arena.get(99_999) && !arena.get(100_001));
        arena.set(100_000, false);
        assert!(!arena.get(100_000));
    }

    #[test]
    fn de_kernels_handle_line_indices_beyond_200() {
        // Regression for the arena sizing: an address stream whose line
        // indices run far past 200 (the capacity the unit tests above size
        // for) must agree between the DE point swept alone, the DE point of
        // the fused triple, and the arena-free invariants, with no
        // out-of-range access.
        let mut addrs = Vec::new();
        let mut rng = SplitMix64::new(99);
        for _ in 0..20_000 {
            // Lines up to ~65_536 at 4-byte lines: well past 200.
            addrs.push((rng.below(65_536) as u32) * 4);
        }
        // And one reference right at the top of the range, so the largest
        // line index is exercised on both the get and the displacement path.
        addrs.push(65_535 * 4);
        addrs.push(65_535 * 4);
        let cfg = config(256, 4);
        let (stats, de) = de(cfg, &addrs);
        let fused = triple(cfg, &addrs);
        assert_eq!((stats, Some(de)), fused[1]);
        assert_eq!(de.loads + de.bypasses, stats.misses());
        assert_eq!(stats.accesses(), addrs.len() as u64);
    }

    #[test]
    fn dm_kernel_matches_reference_on_random_trace() {
        for (seed, span) in [(1u64, 64), (2, 1024), (3, 100_000)] {
            let addrs = random_addrs(seed, 20_000, span);
            for cfg in [config(64, 4), config(1024, 16), config(32 * 1024, 4)] {
                let mut reference = DirectMapped::new(cfg);
                let expected = run_addrs(&mut reference, addrs.iter().copied());
                assert_eq!(dm(cfg, &addrs), expected, "seed {seed} cfg {cfg}");
            }
        }
    }

    #[test]
    fn de_kernel_invariants_on_random_trace() {
        // The cross-crate reference comparison lives in dynex-core and
        // tests/kernel_differential.rs; here the kernel's own invariants.
        let addrs = random_addrs(7, 30_000, 256);
        let cfg = config(256, 4);
        let (stats, de) = de(cfg, &addrs);
        assert_eq!(stats.accesses(), 30_000);
        assert_eq!(de.loads + de.bypasses, stats.misses());
        let dm = dm(cfg, &addrs);
        let opt = opt(cfg, &addrs);
        assert!(opt.misses() <= stats.misses());
        assert!(stats.misses() <= dm.misses() + 2 * 64, "near DM or better");
    }

    #[test]
    fn de_kernel_learns_the_within_loop_pattern() {
        let cfg = config(64, 4);
        let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
        let (stats, de) = de(cfg, &addrs);
        assert_eq!(stats.misses(), 11);
        assert_eq!(de.loads, 1);
        assert_eq!(de.bypasses, 10);
    }

    #[test]
    fn opt_kernel_matches_reference_greedy_counts() {
        // (a^10 b)^10: 11 misses / 110 refs (see the reference oracle tests).
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.extend(std::iter::repeat_n(0u32, 10));
            addrs.push(64);
        }
        let stats = opt(config(64, 4), &addrs);
        assert_eq!(stats.misses(), 11);
        assert_eq!(stats.accesses(), 110);
    }

    #[test]
    fn positions_up_to_never_minus_one_fit() {
        assert_positions_fit(0);
        assert_positions_fit(u32::MAX as usize - 1);
    }

    #[test]
    #[should_panic(expected = "too long for the 32-bit positions")]
    fn a_trace_of_u32_max_references_is_rejected() {
        assert_positions_fit(u32::MAX as usize);
    }

    #[test]
    fn fused_triple_matches_individual_kernels() {
        for seed in [11u64, 12, 13] {
            let addrs = random_addrs(seed, 10_000, 2_048);
            for cfg in [config(64, 4), config(1024, 4), config(4096, 16)] {
                // Every point of the three-point sweep equals that point
                // swept alone: the points share no state.
                let fused = triple(cfg, &addrs);
                let (de_stats, de) = de(cfg, &addrs);
                assert_eq!(fused[0], (dm(cfg, &addrs), None));
                assert_eq!(fused[1], (de_stats, Some(de)));
                assert_eq!(fused[2], (opt(cfg, &addrs), None));
            }
        }
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let cfg = config(64, 4);
        assert_eq!(dm(cfg, &[]).accesses(), 0);
        assert_eq!(de(cfg, &[]).0.accesses(), 0);
        assert_eq!(opt(cfg, &[]).accesses(), 0);
        let t = triple(cfg, &[]);
        assert_eq!(t[0].0.accesses(), 0);
    }

    #[test]
    fn probed_and_bare_kernels_agree() {
        use dynex_obs::CountingProbe;
        let addrs = random_addrs(21, 5_000, 512);
        let cfg = config(256, 4);
        let (probed, probe) = alone_probed(
            SweepPolicy::DynamicExclusion,
            cfg,
            &addrs,
            CountingProbe::new(),
        );
        let (stats, de) = de(cfg, &addrs);
        assert_eq!(probed, (stats, Some(de)));
        let counts = probe.counts();
        assert_eq!(counts.accesses, stats.accesses());
        assert_eq!(counts.misses, stats.misses());
        assert_eq!(counts.exclusion_loads, de.loads);
        assert_eq!(counts.exclusion_bypasses, de.bypasses);
        let (probed_dm, dm_probe) =
            alone_probed(SweepPolicy::DirectMapped, cfg, &addrs, CountingProbe::new());
        let bare_dm = dm(cfg, &addrs);
        assert_eq!(probed_dm, (bare_dm, None));
        assert_eq!(dm_probe.counts().misses, bare_dm.misses());
        assert!(dm_probe.counts().evictions <= bare_dm.misses());
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn de_kernel_rejects_associative_config() {
        de(CacheConfig::new(64, 4, 2).unwrap(), &[0]);
    }
}
