//! First-class replacement policies: the open-ended half of the policy zoo.
//!
//! The paper's contribution is a replacement policy, but for its first nine
//! PRs this repository could only compare dynamic exclusion against the two
//! fixed endpoints it shipped with (conventional direct-mapped and Belady's
//! optimal). This module turns "replacement policy" into a first-class
//! surface for the direct-mapped-with-bypass setting the paper studies:
//!
//! * [`ReplacementPolicy`] — stateful per-set hooks (lookup, install-or-bypass
//!   decision, fill). The trait sees trace positions in order and each chunk
//!   as it begins, so oracle policies (EHC) can prepare a chunk's future
//!   knowledge before its lookups.
//! * [`simulate_policy`] — the generic reference driver: one chunk-decoded
//!   pass that owns the tag array and the [`CacheStats`] accounting
//!   (including the fills / writebacks / probes bandwidth counters) and
//!   delegates every decision to the policy.
//! * [`EhcPolicy`] — Expected-Hit-Count replacement ("Making
//!   Belady-Inspired Replacement Policies More Effective Using Expected Hit
//!   Count", arXiv 1808.05024): rank the incoming block against the
//!   resident by how many hits each would supply within a capacity-scaled
//!   window ([`EHC_HORIZON_FRAMES`]) rather than by time-to-next-use. It
//!   reads its hit counts from a sliding window of per-line use counts
//!   (`EhcWindow`), filled a chunk at a time, as the sweep's EHC points do.
//! * [`BwCostPolicy`] — a bandwidth-aware selective-fill
//!   policy in the spirit of "To Update or Not To Update?" (arXiv
//!   1907.02167): a miss installs only when the block proved reuse during
//!   its last residency (a per-line reuse bit with DE-style
//!   transfer-on-replacement), with a small starvation counter that forces
//!   a fill after [`STARVE_LIMIT`] consecutive bypasses so the cache can
//!   never wedge shut. The payoff is measured in
//!   [`CacheStats::bandwidth_transfers`], not miss rate.
//!
//! [`simulate_policy`] with either policy is that policy's spec, as the
//! paper's own policies each have one spec simulator ([`crate::DirectMapped`],
//! and `DeCache` / `OptimalDirectMapped` in `dynex-core`). All of them
//! share one fast path, the sweep kernel ([`crate::batch_sweep`]), whose
//! EHC and bandwidth-cost points are bit-identical to this driver, traffic
//! counters included; the differential wall enforces it.

use dynex_obs::span;

use crate::batch::CHUNK_LEN;
use crate::direct::INVALID_LINE;
use crate::kernel::{assert_positions_fit, decode_chunk, max_line, HitLastArena};
use crate::line_table::LineTable;
use crate::{CacheConfig, CacheStats};

/// A bypass threshold for [`BwCostPolicy`]: after this many consecutive
/// bypassed misses the next miss installs unconditionally, bounding how
/// long a cold cache can refuse to learn.
pub const STARVE_LIMIT: u8 = 7;

/// Stateful per-set replacement-policy hooks driven by [`simulate_policy`]
/// over a direct-mapped cache.
///
/// The driver owns the tag array and all statistics; implementations own
/// only their policy state. Hooks fire in a fixed order per access:
/// `on_lookup` on every reference (hit or miss), then — on a miss only —
/// `installs`, and `on_fill` if it returned `true`. A miss that does not
/// install bypasses the cache (McFarling's "exclusion"; the DRAM-cache
/// literature's "don't update").
///
/// `pos` is the 0-based trace position of the access. The driver walks the
/// trace in order, in chunks of [`CHUNK_LEN`] references (the last one
/// shorter), and announces each chunk through `begin_chunk` before its
/// first lookup, so an oracle policy can advance its view of the future
/// one chunk at a time.
pub trait ReplacementPolicy {
    /// Announces the chunk of trace positions `pos..pos + len`, before any
    /// of its references is looked up. The default does nothing.
    fn begin_chunk(&mut self, pos: usize, len: usize) {
        let _ = (pos, len);
    }

    /// Observes one reference after hit/miss determination.
    fn on_lookup(&mut self, pos: usize, set: usize, line: u32, hit: bool);

    /// Decides whether a missing block is installed (`true`) or bypasses
    /// the cache (`false`). `resident` is the set's current line, `None`
    /// when the set is empty.
    fn installs(&mut self, pos: usize, set: usize, line: u32, resident: Option<u32>) -> bool;

    /// Observes an install: `evicted` is the displaced line, `None` when
    /// the set was empty.
    fn on_fill(&mut self, pos: usize, set: usize, line: u32, evicted: Option<u32>);
}

/// Runs one policy over a byte-address trace: the reference kernel of the
/// policy zoo.
///
/// The driver accounts hits/misses plus the bandwidth counters: every
/// access is one probe, every install is one fill, and every install that
/// displaces a valid line is one writeback (address traces carry no dirty
/// bits, so the writeback-cache upper bound is applied uniformly — see
/// [`CacheStats::writebacks`]).
///
/// # Panics
///
/// Panics if `config.associativity() != 1`, like the sweep kernel.
pub fn simulate_policy<P: ReplacementPolicy>(
    config: CacheConfig,
    addrs: &[u32],
    policy: &mut P,
) -> CacheStats {
    assert_eq!(
        config.associativity(),
        1,
        "simulate_policy is specialized to direct-mapped caches"
    );
    let geometry = config.geometry();
    let offset_bits = geometry.offset_bits();
    let index_mask = (1u32 << geometry.index_bits()) - 1;
    let mut lines = vec![INVALID_LINE; config.n_sets() as usize];
    let mut misses = 0u64;
    let mut fills = 0u64;
    let mut writebacks = 0u64;
    let mut line_buf = [0u32; CHUNK_LEN];
    let mut pos = 0usize;
    for chunk in addrs.chunks(CHUNK_LEN) {
        {
            let _decode = span::span("kernel.decode");
            decode_chunk(chunk, offset_bits, &mut line_buf);
        }
        policy.begin_chunk(pos, chunk.len());
        let _simulate = span::span("kernel.simulate");
        for &line in &line_buf[..chunk.len()] {
            let set = (line & index_mask) as usize;
            let hit = lines[set] == line;
            policy.on_lookup(pos, set, line, hit);
            if !hit {
                misses += 1;
                let resident = (lines[set] != INVALID_LINE).then_some(lines[set]);
                if policy.installs(pos, set, line, resident) {
                    fills += 1;
                    writebacks += resident.is_some() as u64;
                    lines[set] = line;
                    policy.on_fill(pos, set, line, resident);
                }
            }
            pos += 1;
        }
    }
    CacheStats::from_traffic_counts(
        addrs.len() as u64,
        misses,
        fills,
        writebacks,
        addrs.len() as u64,
    )
}

/// The expected-hit-count oracle as a sliding window: for each reference
/// t, in trace order, the number of references to its line in the window
/// `(t, t + horizon]`, with lines decoded as `addr >> offset_bits`.
///
/// The finite horizon is what makes the count a usable ranking: a block's
/// *lifetime* reference total says nothing about whether those references
/// arrive while it could plausibly stay resident, and ranking by lifetime
/// totals lets a block with many far-future uses starve its set through
/// entire reuse bursts of its competitors. The EHC paper scores hits *per
/// residency*; a capacity-scaled window is the oracle analogue. A horizon
/// of `usize::MAX` gives the degenerate whole-trace count.
///
/// The window holds, in a per-line [`LineTable`], the uses of each line
/// among references `[t, t + horizon]`. At t it takes reference t out (its
/// line's count is then the answer) and takes reference `t + horizon + 1`
/// in: two table operations per reference, and memory for the touched
/// lines only. Counts never exceed the trace length, so they cannot
/// overflow once the length check has passed.
#[derive(Debug, Clone)]
pub(crate) struct EhcWindow<'a> {
    addrs: &'a [u32],
    offset_bits: u32,
    count: LineTable,
    /// The next reference to answer for.
    next: usize,
    /// The first reference not yet counted into the window.
    ahead: usize,
}

impl<'a> EhcWindow<'a> {
    /// A window positioned at the trace's first reference.
    ///
    /// # Panics
    ///
    /// Panics if the trace has `u32::MAX` or more references.
    pub(crate) fn new(addrs: &'a [u32], offset_bits: u32, horizon: usize) -> EhcWindow<'a> {
        assert_positions_fit(addrs.len());
        let mut window = EhcWindow {
            addrs,
            offset_bits,
            count: LineTable::new(0),
            next: 0,
            ahead: horizon.saturating_add(1).min(addrs.len()),
        };
        for &addr in &addrs[..window.ahead] {
            *window.count.slot(addr >> offset_bits) += 1;
        }
        window
    }

    /// Writes the windowed use counts of the next `hits.len()` references.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `hits.len()` references remain.
    pub(crate) fn fill(&mut self, hits: &mut [u32]) {
        let end = self.next + hits.len();
        for (hit, &addr) in hits.iter_mut().zip(&self.addrs[self.next..end]) {
            let count = self.count.slot(addr >> self.offset_bits);
            *count -= 1;
            *hit = *count;
            if let Some(&incoming) = self.addrs.get(self.ahead) {
                *self.count.slot(incoming >> self.offset_bits) += 1;
                self.ahead += 1;
            }
        }
        self.next = end;
    }
}

/// The EHC oracle's counting window, in references per cache frame: a
/// block's expected hit count is the number of its uses within the next
/// `EHC_HORIZON_FRAMES × n_sets × ways` references. Small enough that the
/// count reflects hits plausibly deliverable within one residency, large
/// enough that loop-scale reuse is visible at every sweep size.
pub const EHC_HORIZON_FRAMES: usize = 8;

/// Expected-Hit-Count replacement (arXiv 1808.05024), adapted to the
/// paper's direct-mapped-with-bypass setting: on a miss, install the
/// incoming block only when it will supply strictly more future hits than
/// the resident block. Where OPT ranks blocks by *when* they are next
/// used, EHC ranks them by *how many* hits they still have to give — the
/// paper's observation is that hit count, not recency of next use, is what
/// a replacement decision actually buys.
///
/// This implementation uses exact hit counts from the oracle window over a
/// capacity-scaled horizon ([`EHC_HORIZON_FRAMES`] references per cache
/// frame — the idealized form of the paper's per-residency predictor),
/// making it a proper sibling of the repository's perfect-history DE and
/// OPT simulators. The horizon matters: ranking by *lifetime* reference
/// totals lets a block with many far-future uses hold its set hostage
/// through entire reuse bursts of its competitors, which is precisely the
/// failure mode the paper's residency-scoped counting avoids. An empty set
/// has a resident hit count of zero, so a block with no use inside the
/// window bypasses even an empty frame — deterministic and harmless either
/// way, since neither choice can change a later outcome.
///
/// The policy borrows the trace it will be driven over and reads each
/// chunk's hit counts, as the chunk begins, from a sliding window over it
/// (the one the sweep kernel's EHC points use), so [`simulate_policy`]
/// must drive it over that same trace.
#[derive(Debug, Clone)]
pub struct EhcPolicy<'a> {
    window: EhcWindow<'a>,
    /// The first position of the current chunk.
    chunk_pos: usize,
    /// The hit counts of the current chunk.
    hits_left: Vec<u32>,
    resident_hits: Vec<u32>,
}

impl<'a> EhcPolicy<'a> {
    /// Positions the windowed-use oracle at the start of `addrs`.
    ///
    /// # Panics
    ///
    /// Panics if the trace has `u32::MAX` or more references.
    pub fn new(config: CacheConfig, addrs: &'a [u32]) -> EhcPolicy<'a> {
        let window = {
            let _next_use = span::span("kernel.next-use");
            EhcWindow::new(addrs, config.geometry().offset_bits(), ehc_horizon(config))
        };
        EhcPolicy {
            window,
            chunk_pos: 0,
            hits_left: Vec::with_capacity(CHUNK_LEN),
            resident_hits: vec![0; config.n_sets() as usize],
        }
    }

    /// The hit count of the reference at `pos`, a position of the current
    /// chunk.
    #[inline]
    fn hits_left(&self, pos: usize) -> u32 {
        self.hits_left[pos - self.chunk_pos]
    }
}

/// The EHC counting window for one configuration:
/// [`EHC_HORIZON_FRAMES`] references per cache frame.
pub(crate) fn ehc_horizon(config: CacheConfig) -> usize {
    config.n_sets() as usize * config.associativity() as usize * EHC_HORIZON_FRAMES
}

impl ReplacementPolicy for EhcPolicy<'_> {
    fn begin_chunk(&mut self, pos: usize, len: usize) {
        assert_eq!(pos, self.window.next, "EHC is driven in trace order");
        let _next_use = span::span("kernel.next-use");
        self.chunk_pos = pos;
        self.hits_left.resize(len, 0);
        self.window.fill(&mut self.hits_left);
    }

    fn on_lookup(&mut self, pos: usize, set: usize, _line: u32, hit: bool) {
        if hit {
            self.resident_hits[set] = self.hits_left(pos);
        }
    }

    fn installs(&mut self, pos: usize, set: usize, _line: u32, _resident: Option<u32>) -> bool {
        self.hits_left(pos) > self.resident_hits[set]
    }

    fn on_fill(&mut self, pos: usize, set: usize, _line: u32, _evicted: Option<u32>) {
        self.resident_hits[set] = self.hits_left(pos);
    }
}

/// Bandwidth-aware selective fill (arXiv 1907.02167's "to update or not to
/// update" question, answered with the repository's perfect-history
/// machinery): a miss installs only when the incoming block's reuse bit is
/// set — it hit at least once during its previous residency — or the way
/// is empty, or [`STARVE_LIMIT`] consecutive misses have bypassed.
///
/// The reuse bit lives in a per-line arena with DE-style
/// transfer-on-replacement: while resident, the live copy rides in the
/// set (`r_copy`); on eviction it is written back to the arena for the
/// next residency decision. The starvation counter is deliberately
/// *global* (the policy trades a little per-set precision for a 3-bit
/// hardware budget), so its state is not independent across sets.
#[derive(Debug, Clone)]
pub struct BwCostPolicy {
    reuse: HitLastArena,
    r_copy: Vec<bool>,
    starve: u8,
}

impl BwCostPolicy {
    /// Policy state for one configuration; the trace sizes the reuse-bit
    /// arena (a hint — the arena grows on demand).
    pub fn new(config: CacheConfig, addrs: &[u32]) -> BwCostPolicy {
        BwCostPolicy {
            reuse: HitLastArena::new(max_line(addrs, config.geometry().offset_bits())),
            r_copy: vec![false; config.n_sets() as usize],
            starve: 0,
        }
    }
}

impl ReplacementPolicy for BwCostPolicy {
    fn on_lookup(&mut self, _pos: usize, set: usize, _line: u32, hit: bool) {
        if hit {
            self.r_copy[set] = true;
        }
    }

    fn installs(&mut self, _pos: usize, _set: usize, line: u32, resident: Option<u32>) -> bool {
        let installs = resident.is_none() || self.reuse.get(line) || self.starve >= STARVE_LIMIT;
        if !installs {
            self.starve = self.starve.saturating_add(1).min(STARVE_LIMIT);
        }
        installs
    }

    fn on_fill(&mut self, _pos: usize, set: usize, _line: u32, evicted: Option<u32>) {
        if let Some(victim) = evicted {
            self.reuse.set(victim, self.r_copy[set]);
        }
        self.r_copy[set] = false;
        self.starve = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_table::{sparse_lines, PAGE_LEN};
    use crate::{batch_sweep, run_addrs, DirectMapped, SplitMix64, SweepPoint, SweepPolicy};
    use dynex_obs::CountingProbe;

    fn config(size: u32, line: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, line).unwrap()
    }

    /// A deterministic loopy trace with enough conflicts to make every
    /// policy's decisions matter.
    fn trace(n: usize) -> Vec<u32> {
        let mut rng = SplitMix64::new(0x9010);
        let mut addrs = Vec::with_capacity(n);
        while addrs.len() < n {
            // A short loop body, then a jump into one of a few hot regions.
            let base = [0u32, 4096, 16384, 4096, 65536][(rng.next_u64() % 5) as usize];
            let body = 4 + (rng.next_u64() % 29) as u32;
            for i in 0..body {
                addrs.push(base + (i * 4) % 2048);
                if addrs.len() == n {
                    break;
                }
            }
        }
        addrs
    }

    fn thrash() -> Vec<u32> {
        (0..40).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect()
    }

    /// The statistics of `policy` at `config` through the fast kernel, as a
    /// one-point sweep.
    fn alone(policy: SweepPolicy, config: CacheConfig, addrs: &[u32]) -> CacheStats {
        batch_sweep(&[SweepPoint::new(config, policy)], addrs)[0].0
    }

    /// DM's cache-side traffic as the spec simulator counts it: a probe per
    /// access, a fill per miss, and a writeback per eviction event.
    fn dm_traffic(config: CacheConfig, addrs: &[u32]) -> CacheStats {
        let mut dm = DirectMapped::with_probe(config, CountingProbe::new());
        let stats = run_addrs(&mut dm, addrs.iter().copied());
        let evictions = dm.probe().counts().evictions;
        CacheStats::from_traffic_counts(
            stats.accesses(),
            stats.misses(),
            stats.misses(),
            evictions,
            stats.accesses(),
        )
    }

    #[test]
    fn ehc_trait_and_batch_agree_bit_for_bit() {
        for (size, line) in [(256, 4), (1024, 4), (4096, 16)] {
            let config = config(size, line);
            let addrs = trace(30_000);
            let mut policy = EhcPolicy::new(config, &addrs);
            let via_trait = simulate_policy(config, &addrs, &mut policy);
            let via_kernel = alone(SweepPolicy::ExpectedHitCount, config, &addrs);
            assert_eq!(via_trait, via_kernel, "S={size} b={line}");
        }
    }

    #[test]
    fn bwcost_trait_and_batch_agree_bit_for_bit() {
        for (size, line) in [(256, 4), (1024, 4), (4096, 16)] {
            let config = config(size, line);
            let addrs = trace(30_000);
            let mut policy = BwCostPolicy::new(config, &addrs);
            let via_trait = simulate_policy(config, &addrs, &mut policy);
            let via_kernel = alone(SweepPolicy::BandwidthCost, config, &addrs);
            assert_eq!(via_trait, via_kernel, "S={size} b={line}");
        }
    }

    #[test]
    fn opt_is_a_lower_bound_for_ehc() {
        let config = config(1024, 4);
        let addrs = trace(30_000);
        let ehc = alone(SweepPolicy::ExpectedHitCount, config, &addrs);
        let opt = alone(SweepPolicy::Optimal, config, &addrs);
        let dm = alone(SweepPolicy::DirectMapped, config, &addrs);
        assert!(opt.misses() <= ehc.misses());
        // On this loopy trace the hit-count oracle beats blind replacement.
        assert!(ehc.misses() < dm.misses());
    }

    #[test]
    fn ehc_on_thrash_matches_opt() {
        // (a b)^20 on one set: both oracles keep `a` resident after the
        // cold start and bypass `b`.
        let config = config(64, 4);
        let addrs = thrash();
        assert_eq!(
            alone(SweepPolicy::ExpectedHitCount, config, &addrs).misses(),
            21
        );
        assert_eq!(alone(SweepPolicy::Optimal, config, &addrs).misses(), 21);
    }

    #[test]
    fn bwcost_saves_bandwidth_on_thrash() {
        let config = config(64, 4);
        let addrs = thrash();
        let bw = alone(SweepPolicy::BandwidthCost, config, &addrs);
        let dm = dm_traffic(config, &addrs);
        // DM fills on all 40 thrashing misses; the selective-fill policy
        // refuses the never-reused alternation after the cold fill.
        assert!(bw.bandwidth_transfers() < dm.bandwidth_transfers());
        assert!(bw.fills() < dm.fills());
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn simulate_policy_rejects_associative_config() {
        let config = CacheConfig::new(128, 4, 2).unwrap();
        simulate_policy(config, &[0], &mut BwCostPolicy::new(config, &[0]));
    }

    #[test]
    fn bwcost_starvation_counter_forces_fills() {
        // A long no-reuse scan through one set: without the starvation
        // valve only the cold miss would ever fill; with it, every
        // (STARVE_LIMIT+1)-th miss installs.
        let config = config(64, 4);
        let addrs: Vec<u32> = (0..100u32).map(|i| i * 64).collect();
        let bw = alone(SweepPolicy::BandwidthCost, config, &addrs);
        assert_eq!(bw.misses(), 100);
        assert!(bw.fills() > 1, "starvation valve never opened");
        assert!(bw.fills() < bw.misses());
        // 1 cold fill + one forced fill per STARVE_LIMIT+1 bypassed misses.
        assert_eq!(bw.fills(), 1 + 99 / (STARVE_LIMIT as u64 + 1));
    }

    /// The model [`EhcWindow`] is checked against, a forward rank scan over
    /// the whole trace: `uses[i]` = number of references to the line of
    /// `addrs[i]` in `(i, i + horizon]`.
    /// Reference `j` first takes its rank among its line's references so
    /// far (the line's count before it); once the scan has counted through
    /// `j = i + horizon`, the references to the line of `i` inside the
    /// window are that count minus the rank of `i` minus `i` itself.
    /// References whose window reaches past the end settle from the final
    /// counts.
    fn windowed_uses(addrs: &[u32], offset_bits: u32, horizon: usize) -> Vec<u32> {
        let n = addrs.len();
        let line = |i: usize| addrs[i] >> offset_bits;
        // Holds each reference's rank until its window has been counted.
        let mut uses = Vec::with_capacity(n);
        let mut count = LineTable::new(0);
        for j in 0..n {
            let seen = count.slot(line(j));
            uses.push(*seen);
            *seen += 1;
            if let Some(i) = j.checked_sub(horizon) {
                uses[i] = count.get(line(i)) - uses[i] - 1;
            }
        }
        let tail = n.saturating_sub(horizon);
        for (rank, &addr) in uses[tail..].iter_mut().zip(&addrs[tail..]) {
            *rank = count.get(addr >> offset_bits) - *rank - 1;
        }
        uses
    }

    /// The window's counts for the whole trace, filled in pieces of
    /// `piece` references (the last one shorter).
    fn window_uses(addrs: &[u32], offset_bits: u32, horizon: usize, piece: usize) -> Vec<u32> {
        let mut window = EhcWindow::new(addrs, offset_bits, horizon);
        let mut uses = vec![0; addrs.len()];
        for hits in uses.chunks_mut(piece) {
            window.fill(hits);
        }
        uses
    }

    #[test]
    fn window_matches_the_forward_rank_scan() {
        let horizons = [
            0usize,
            1,
            7,
            PAGE_LEN,
            CHUNK_LEN - 1,
            CHUNK_LEN,
            CHUNK_LEN + 1,
            usize::MAX,
        ];
        for horizon in horizons {
            assert!(window_uses(&[], 0, horizon, CHUNK_LEN).is_empty());
            for seed in 0..4u64 {
                for len in [1usize, 2, 7, 300, 3 * CHUNK_LEN + 5] {
                    let lines = sparse_lines(seed, len);
                    let model = windowed_uses(&lines, 0, horizon);
                    for piece in [1usize, 97, CHUNK_LEN] {
                        assert_eq!(
                            window_uses(&lines, 0, horizon, piece),
                            model,
                            "seed {seed} len {len} horizon {horizon} piece {piece}"
                        );
                    }
                }
            }
        }
        // Lines, not byte addresses: 28 and 31 share a 4-byte line.
        assert_eq!(window_uses(&[28, 12, 31], 2, 2, 2), vec![1, 0, 0]);
    }

    #[test]
    fn window_spans_many_chunks_at_the_32k_horizon() {
        // 32 KB of 4-byte lines: a horizon of 8 x 8192 = 65,536 references,
        // sixteen chunks, over a trace of forty chunks.
        let horizon = ehc_horizon(config(32 * 1024, 4));
        assert_eq!(horizon, 16 * CHUNK_LEN);
        let mut rng = SplitMix64::new(0xe4c);
        let addrs: Vec<u32> = (0..40 * CHUNK_LEN + 3)
            .map(|_| rng.below(20_000) as u32 * 4)
            .collect();
        assert_eq!(
            window_uses(&addrs, 2, horizon, CHUNK_LEN),
            windowed_uses(&addrs, 2, horizon)
        );
    }

    #[test]
    fn windowed_uses_counts_references_inside_the_horizon() {
        let lines = [7u32, 3, 7, 7, 3];
        // An unbounded horizon counts every future reference.
        assert_eq!(windowed_uses(&lines, 0, usize::MAX), vec![2, 1, 1, 0, 0]);
        // A 2-reference window only sees uses at i+1 and i+2.
        assert_eq!(windowed_uses(&lines, 0, 2), vec![1, 0, 1, 0, 0]);
        // A 1-reference window only sees immediate reuse.
        assert_eq!(windowed_uses(&lines, 0, 1), vec![0, 0, 1, 0, 0]);
        assert_eq!(windowed_uses(&[], 0, 4), Vec::<u32>::new());
        // Lines, not byte addresses: 28 and 31 share a 4-byte line.
        assert_eq!(windowed_uses(&[28, 12, 31], 2, 2), vec![1, 0, 0]);
    }

    /// The definition `windowed_uses` implements, quadratically: the
    /// references to the same line in the window `(i, i + horizon]`.
    fn naive_windowed_uses(lines: &[u32], horizon: usize) -> Vec<u32> {
        (0..lines.len())
            .map(|i| {
                let end = i.saturating_add(horizon).min(lines.len() - 1);
                lines[i + 1..=end]
                    .iter()
                    .filter(|&&l| l == lines[i])
                    .count() as u32
            })
            .collect()
    }

    #[test]
    fn windowed_uses_matches_its_definition() {
        for horizon in [1usize, 2, 8, usize::MAX] {
            assert_eq!(windowed_uses(&[], 0, horizon), Vec::<u32>::new());
            for seed in 0..8u64 {
                for len in [1usize, 2, 17, 300] {
                    let lines = sparse_lines(seed, len);
                    assert_eq!(
                        windowed_uses(&lines, 0, horizon),
                        naive_windowed_uses(&lines, horizon),
                        "seed {seed} len {len} horizon {horizon}"
                    );
                }
            }
        }
    }

    /// The reverse sliding-window scan the forward rank scan replaced: one
    /// count per line of the window `(i, i + horizon]`, moved down one
    /// position per step.
    fn reverse_windowed_uses(lines: &[u32], horizon: usize) -> Vec<u32> {
        let n = lines.len();
        let mut uses = vec![0u32; n];
        let mut count = LineTable::new(0);
        for i in (0..n).rev() {
            if i + 1 < n {
                *count.slot(lines[i + 1]) += 1;
            }
            if let Some(out) = i
                .checked_add(horizon)
                .and_then(|h| h.checked_add(1))
                .filter(|&out| out < n)
            {
                *count.slot(lines[out]) -= 1;
            }
            uses[i] = *count.slot(lines[i]);
        }
        uses
    }

    #[test]
    fn windowed_uses_matches_the_reverse_scan() {
        for horizon in [0usize, 1, 7, PAGE_LEN, usize::MAX] {
            assert_eq!(windowed_uses(&[], 0, horizon), Vec::<u32>::new());
            for seed in 0..6u64 {
                for len in [1usize, 2, 7, 8, 300, 3 * PAGE_LEN + 5] {
                    let lines = sparse_lines(seed, len);
                    assert_eq!(
                        windowed_uses(&lines, 0, horizon),
                        reverse_windowed_uses(&lines, horizon),
                        "seed {seed} len {len} horizon {horizon}"
                    );
                }
            }
        }
    }
}
