//! First-class replacement policies: the open-ended half of the policy zoo.
//!
//! The paper's contribution is a replacement policy, but for its first nine
//! PRs this repository could only compare dynamic exclusion against the two
//! fixed endpoints it shipped with (conventional direct-mapped and Belady's
//! optimal). This module turns "replacement policy" into a first-class
//! surface:
//!
//! * [`ReplacementPolicy`] — stateful per-set hooks (lookup, victim
//!   selection, fill) wide enough for set-associative policies. The trait
//!   sees trace positions, so oracle policies (OPT, EHC) can index
//!   precomputed future-knowledge arrays.
//! * [`simulate_policy`] — the generic reference driver: one chunk-decoded
//!   pass that owns the tag array and the [`CacheStats`] accounting
//!   (including the fills / writebacks / probes bandwidth counters) and
//!   delegates every decision to the policy.
//! * [`DmPolicy`] / [`DePolicy`] — the paper's direct-mapped and
//!   dynamic-exclusion policies re-expressed through the trait, so the
//!   driver's traffic counters cover them (the bandwidth figure reads
//!   their fills). They are *proven* equivalent to the fast dm/de points
//!   of [`crate::batch_sweep`] by this module's tests; that sweep kernel
//!   remains their fast path.
//! * [`EhcPolicy`] / [`batch_ehc`] — Expected-Hit-Count replacement
//!   ("Making Belady-Inspired Replacement Policies More Effective Using
//!   Expected Hit Count", arXiv 1808.05024): rank the incoming block
//!   against the resident by how many hits each would supply within a
//!   capacity-scaled window ([`EHC_HORIZON_FRAMES`]) rather than by
//!   time-to-next-use. Reuses the fused kernel's oracle machinery (one
//!   reverse scan over the decoded line stream).
//! * [`BwCostPolicy`] / [`batch_bwcost`] — a bandwidth-aware selective-fill
//!   policy in the spirit of "To Update or Not To Update?" (arXiv
//!   1907.02167): a miss installs only when the block proved reuse during
//!   its last residency (a per-line reuse bit with DE-style
//!   transfer-on-replacement), with a small starvation counter that forces
//!   a fill after [`STARVE_LIMIT`] consecutive bypasses so the cache can
//!   never wedge shut. The payoff is measured in
//!   [`CacheStats::bandwidth_transfers`], not miss rate.
//!
//! Like every kernel in this crate, the batch entry points here are
//! bit-identical to the trait-driven reference path; the differential wall
//! enforces it.

use dynex_obs::span;

use crate::batch::CHUNK_LEN;
use crate::direct::INVALID_LINE;
use crate::kernel::{
    assert_positions_fit, de_fsm_index, decode_chunk, max_line, DeFsmRow, HitLastArena,
    DE_FSM_TABLE,
};
use crate::line_table::LineTable;
use crate::{CacheConfig, CacheStats};

/// The sentinel line address marking an empty way in the resident slice
/// passed to [`ReplacementPolicy::victim`] (no real line decodes to it:
/// lines are addresses shifted right by at least the 4-byte word offset).
pub const NO_LINE: u32 = INVALID_LINE;

/// A bypass threshold for [`BwCostPolicy`]: after this many consecutive
/// bypassed misses the next miss installs unconditionally, bounding how
/// long a cold cache can refuse to learn.
pub const STARVE_LIMIT: u8 = 7;

/// What a policy decided to do with a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimChoice {
    /// Install the block into the given way, displacing its occupant.
    Install {
        /// The way index within the set (`0` for direct-mapped policies).
        way: usize,
    },
    /// Serve the reference without caching the block (McFarling's
    /// "exclusion"; the DRAM-cache literature's "don't update").
    Bypass,
}

/// Stateful per-set replacement-policy hooks driven by [`simulate_policy`].
///
/// The driver owns the tag array and all statistics; implementations own
/// only their policy state. Hooks fire in a fixed order per access:
/// `on_lookup` on every reference (hit or miss), then — on a miss only —
/// `victim`, and `on_fill` if the victim choice installed.
///
/// `pos` is the 0-based trace position of the access, so oracle policies
/// can index arrays precomputed from the whole trace.
pub trait ReplacementPolicy {
    /// Observes one reference after hit/miss determination; `hit_way` is
    /// the way the block was found in, `None` on a miss.
    fn on_lookup(&mut self, pos: usize, set: usize, line: u32, hit_way: Option<usize>);

    /// Decides what to do with a missing block. `resident` holds the set's
    /// current occupants, [`NO_LINE`] for empty ways.
    fn victim(&mut self, pos: usize, set: usize, line: u32, resident: &[u32]) -> VictimChoice;

    /// Observes an install: `evicted` is the displaced line, `None` when
    /// the way was empty.
    fn on_fill(&mut self, pos: usize, set: usize, line: u32, way: usize, evicted: Option<u32>);
}

/// Runs one policy over a byte-address trace: the reference kernel of the
/// policy zoo.
///
/// The driver accounts hits/misses plus the bandwidth counters: every
/// access is one probe, every install is one fill, and every install that
/// displaces a valid line is one writeback (address traces carry no dirty
/// bits, so the writeback-cache upper bound is applied uniformly — see
/// [`CacheStats::writebacks`]).
pub fn simulate_policy<P: ReplacementPolicy>(
    config: CacheConfig,
    addrs: &[u32],
    policy: &mut P,
) -> CacheStats {
    let geometry = config.geometry();
    let offset_bits = geometry.offset_bits();
    let index_mask = (1u32 << geometry.index_bits()) - 1;
    let ways = config.associativity() as usize;
    let mut tags = vec![NO_LINE; config.n_sets() as usize * ways];
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
        let _simulate = span::span("kernel.simulate");
        for &line in &line_buf[..chunk.len()] {
            let set = (line & index_mask) as usize;
            let frame = &mut tags[set * ways..(set + 1) * ways];
            let hit_way = frame.iter().position(|&t| t == line);
            policy.on_lookup(pos, set, line, hit_way);
            if hit_way.is_none() {
                misses += 1;
                match policy.victim(pos, set, line, frame) {
                    VictimChoice::Install { way } => {
                        let displaced = frame[way];
                        fills += 1;
                        if displaced != NO_LINE {
                            writebacks += 1;
                        }
                        frame[way] = line;
                        policy.on_fill(
                            pos,
                            set,
                            line,
                            way,
                            (displaced != NO_LINE).then_some(displaced),
                        );
                    }
                    VictimChoice::Bypass => {}
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

/// The conventional direct-mapped policy: always install into way 0.
#[derive(Debug, Default, Clone, Copy)]
pub struct DmPolicy;

impl ReplacementPolicy for DmPolicy {
    fn on_lookup(&mut self, _pos: usize, _set: usize, _line: u32, _hit_way: Option<usize>) {}

    fn victim(&mut self, _pos: usize, _set: usize, _line: u32, _resident: &[u32]) -> VictimChoice {
        VictimChoice::Install { way: 0 }
    }

    fn on_fill(
        &mut self,
        _pos: usize,
        _set: usize,
        _line: u32,
        _way: usize,
        _evicted: Option<u32>,
    ) {
    }
}

/// Dynamic exclusion through the trait: the Figure 1 FSM with the perfect
/// hit-last store, bit-identical in its decisions to `DeCache` and the DE
/// points of [`crate::batch_sweep`] (the driver's miss count equals theirs;
/// its fill count equals the DE load counter).
#[derive(Debug, Clone)]
pub struct DePolicy {
    sticky: Vec<bool>,
    h_copy: Vec<bool>,
    arena: HitLastArena,
    /// FSM row of the in-flight miss, stashed between `on_lookup` and the
    /// `victim` / `on_fill` hooks of the same access.
    row: DeFsmRow,
}

impl DePolicy {
    /// Policy state for one configuration; the trace sizes the hit-last
    /// arena (a hint — the arena grows on demand).
    pub fn new(config: CacheConfig, addrs: &[u32]) -> DePolicy {
        let n_sets = config.n_sets() as usize;
        DePolicy {
            sticky: vec![false; n_sets],
            h_copy: vec![false; n_sets],
            arena: HitLastArena::new(max_line(addrs, config.geometry().offset_bits())),
            row: DE_FSM_TABLE[0],
        }
    }
}

impl ReplacementPolicy for DePolicy {
    fn on_lookup(&mut self, _pos: usize, set: usize, line: u32, hit_way: Option<usize>) {
        let hit = hit_way.is_some();
        let row = DE_FSM_TABLE[de_fsm_index(hit, self.sticky[set], self.arena.get(line))];
        self.sticky[set] = row.sticky_after;
        if hit {
            // The resident block's in-line hit-last copy is re-armed.
            self.h_copy[set] = true;
        }
        self.row = row;
    }

    fn victim(&mut self, _pos: usize, _set: usize, _line: u32, _resident: &[u32]) -> VictimChoice {
        if self.row.installs {
            VictimChoice::Install { way: 0 }
        } else {
            VictimChoice::Bypass
        }
    }

    fn on_fill(&mut self, _pos: usize, set: usize, _line: u32, _way: usize, evicted: Option<u32>) {
        if let Some(victim) = evicted {
            // Figure 6 "transfer on replacement": the victim's in-line copy
            // goes back to the arena.
            self.arena.set(victim, self.h_copy[set]);
        }
        self.h_copy[set] = self.row.hit_last_value;
    }
}

/// `uses[i]` = number of references to the line of `addrs[i]` in the
/// window `(i, i + horizon]`, with lines decoded as `addr >> offset_bits`
/// — the expected-hit-count oracle.
///
/// The finite horizon is what makes the count a usable ranking: a block's
/// *lifetime* reference total says nothing about whether those references
/// arrive while it could plausibly stay resident, and ranking by lifetime
/// totals lets a block with many far-future uses starve its set through
/// entire reuse bursts of its competitors. The EHC paper scores hits *per
/// residency*; a capacity-scaled window is the oracle analogue. Pass
/// `usize::MAX` for the degenerate whole-trace count.
///
/// One reverse sliding-window scan, counting in a [`LineTable`] like the
/// next-use oracle and decoding on the fly like it. Counts never exceed the
/// trace length, so they cannot overflow once the length check has passed.
///
/// # Panics
///
/// Panics if the trace has `u32::MAX` or more references.
pub(crate) fn windowed_uses(addrs: &[u32], offset_bits: u32, horizon: usize) -> Vec<u32> {
    assert_positions_fit(addrs.len());
    let n = addrs.len();
    let line = |i: usize| addrs[i] >> offset_bits;
    let mut uses = vec![0u32; n];
    let mut count = LineTable::new(0);
    for i in (0..n).rev() {
        if i + 1 < n {
            *count.slot(line(i + 1)) += 1;
        }
        // The reference that leaves the window `(i, i + horizon]` when it
        // moves from position i+1 down to i, if the window ends inside the
        // trace. It entered at an earlier step, so its count is positive.
        if let Some(out) = i
            .checked_add(horizon)
            .and_then(|h| h.checked_add(1))
            .filter(|&out| out < n)
        {
            *count.slot(line(out)) -= 1;
        }
        uses[i] = *count.slot(line(i));
    }
    uses
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
/// This implementation uses exact hit counts from the oracle scan over a
/// capacity-scaled window ([`EHC_HORIZON_FRAMES`] references per cache
/// frame — the idealized form of the paper's per-residency predictor),
/// making it a proper sibling of the repository's perfect-history DE and
/// OPT simulators. The horizon matters: ranking by *lifetime* reference
/// totals lets a block with many far-future uses hold its set hostage
/// through entire reuse bursts of its competitors, which is precisely the
/// failure mode the paper's residency-scoped counting avoids. An empty set
/// has a resident hit count of zero, so a block with no use inside the
/// window bypasses even an empty frame — deterministic and harmless either
/// way, since neither choice can change a later outcome.
#[derive(Debug, Clone)]
pub struct EhcPolicy {
    hits_left: Vec<u32>,
    resident_hits: Vec<u32>,
}

impl EhcPolicy {
    /// Builds the windowed-use oracle for the trace.
    pub fn new(config: CacheConfig, addrs: &[u32]) -> EhcPolicy {
        let hits_left = {
            let _next_use = span::span("kernel.next-use");
            windowed_uses(addrs, config.geometry().offset_bits(), ehc_horizon(config))
        };
        EhcPolicy {
            hits_left,
            resident_hits: vec![0; config.n_sets() as usize],
        }
    }
}

/// The EHC counting window for one configuration:
/// [`EHC_HORIZON_FRAMES`] references per cache frame.
fn ehc_horizon(config: CacheConfig) -> usize {
    config.n_sets() as usize * config.associativity() as usize * EHC_HORIZON_FRAMES
}

impl ReplacementPolicy for EhcPolicy {
    fn on_lookup(&mut self, pos: usize, set: usize, _line: u32, hit_way: Option<usize>) {
        if hit_way.is_some() {
            self.resident_hits[set] = self.hits_left[pos];
        }
    }

    fn victim(&mut self, pos: usize, set: usize, _line: u32, _resident: &[u32]) -> VictimChoice {
        if self.hits_left[pos] > self.resident_hits[set] {
            VictimChoice::Install { way: 0 }
        } else {
            VictimChoice::Bypass
        }
    }

    fn on_fill(&mut self, pos: usize, set: usize, _line: u32, _way: usize, _evicted: Option<u32>) {
        self.resident_hits[set] = self.hits_left[pos];
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
    fn on_lookup(&mut self, _pos: usize, set: usize, _line: u32, hit_way: Option<usize>) {
        if hit_way.is_some() {
            self.r_copy[set] = true;
        }
    }

    fn victim(&mut self, _pos: usize, _set: usize, line: u32, resident: &[u32]) -> VictimChoice {
        if resident[0] == NO_LINE || self.reuse.get(line) || self.starve >= STARVE_LIMIT {
            VictimChoice::Install { way: 0 }
        } else {
            self.starve = self.starve.saturating_add(1).min(STARVE_LIMIT);
            VictimChoice::Bypass
        }
    }

    fn on_fill(&mut self, _pos: usize, set: usize, _line: u32, _way: usize, evicted: Option<u32>) {
        if let Some(victim) = evicted {
            self.reuse.set(victim, self.r_copy[set]);
        }
        self.r_copy[set] = false;
        self.starve = 0;
    }
}

/// Batch kernel for Expected-Hit-Count replacement: the specialized
/// direct-mapped loop (flat per-set arrays, chunked decode), bit-identical
/// to [`simulate_policy`] with [`EhcPolicy`] — including the bandwidth
/// counters.
///
/// # Panics
///
/// Panics if `config.associativity() != 1`, like the other batch kernels.
pub fn batch_ehc(config: CacheConfig, addrs: &[u32]) -> CacheStats {
    assert_eq!(
        config.associativity(),
        1,
        "the EHC batch kernel is specialized to direct-mapped caches"
    );
    let geometry = config.geometry();
    let offset_bits = geometry.offset_bits();
    let index_mask = (1u32 << geometry.index_bits()) - 1;
    let hits_left = {
        let _next_use = span::span("kernel.next-use");
        windowed_uses(addrs, offset_bits, ehc_horizon(config))
    };

    let n_sets = config.n_sets() as usize;
    let mut resident = vec![INVALID_LINE; n_sets];
    let mut resident_hits = vec![0u32; n_sets];
    let mut misses = 0u64;
    let mut fills = 0u64;
    let mut writebacks = 0u64;
    let mut line_buf = [0u32; CHUNK_LEN];
    for (chunk, hits_chunk) in addrs.chunks(CHUNK_LEN).zip(hits_left.chunks(CHUNK_LEN)) {
        {
            let _decode = span::span("kernel.decode");
            decode_chunk(chunk, offset_bits, &mut line_buf);
        }
        let _simulate = span::span("kernel.simulate");
        for (&line, &h) in line_buf.iter().zip(hits_chunk) {
            let set = (line & index_mask) as usize;
            if resident[set] == line {
                resident_hits[set] = h;
            } else {
                misses += 1;
                if h > resident_hits[set] {
                    fills += 1;
                    if resident[set] != INVALID_LINE {
                        writebacks += 1;
                    }
                    resident[set] = line;
                    resident_hits[set] = h;
                }
            }
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

/// Batch kernel for the bandwidth-aware selective-fill policy,
/// bit-identical to [`simulate_policy`] with [`BwCostPolicy`] — including
/// the bandwidth counters.
///
/// # Panics
///
/// Panics if `config.associativity() != 1`, like the other batch kernels.
pub fn batch_bwcost(config: CacheConfig, addrs: &[u32]) -> CacheStats {
    assert_eq!(
        config.associativity(),
        1,
        "the bwcost batch kernel is specialized to direct-mapped caches"
    );
    let geometry = config.geometry();
    let offset_bits = geometry.offset_bits();
    let index_mask = (1u32 << geometry.index_bits()) - 1;
    let n_sets = config.n_sets() as usize;
    let mut resident = vec![INVALID_LINE; n_sets];
    let mut r_copy = vec![false; n_sets];
    let mut reuse = HitLastArena::new(max_line(addrs, offset_bits));
    let mut starve = 0u8;
    let mut misses = 0u64;
    let mut fills = 0u64;
    let mut writebacks = 0u64;
    let mut line_buf = [0u32; CHUNK_LEN];
    for chunk in addrs.chunks(CHUNK_LEN) {
        {
            let _decode = span::span("kernel.decode");
            decode_chunk(chunk, offset_bits, &mut line_buf);
        }
        let _simulate = span::span("kernel.simulate");
        for &line in &line_buf[..chunk.len()] {
            let set = (line & index_mask) as usize;
            let occupant = resident[set];
            if occupant == line {
                r_copy[set] = true;
            } else {
                misses += 1;
                if occupant == INVALID_LINE || reuse.get(line) || starve >= STARVE_LIMIT {
                    fills += 1;
                    if occupant != INVALID_LINE {
                        writebacks += 1;
                        reuse.set(occupant, r_copy[set]);
                    }
                    resident[set] = line;
                    r_copy[set] = false;
                    starve = 0;
                } else {
                    starve = starve.saturating_add(1).min(STARVE_LIMIT);
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_table::sparse_lines;
    use crate::{batch_sweep, SplitMix64, SweepPoint, SweepPointResult, SweepPolicy};

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

    /// `policy` at `config` through the fast kernel, as a one-point sweep.
    fn alone(policy: SweepPolicy, config: CacheConfig, addrs: &[u32]) -> SweepPointResult {
        batch_sweep(&[SweepPoint::new(config, policy)], addrs)[0]
    }

    #[test]
    fn dm_policy_matches_batch_kernel() {
        let config = config(1024, 4);
        let addrs = trace(20_000);
        let via_trait = simulate_policy(config, &addrs, &mut DmPolicy);
        let via_kernel = alone(SweepPolicy::DirectMapped, config, &addrs).stats();
        assert_eq!(via_trait.accesses(), via_kernel.accesses());
        assert_eq!(via_trait.misses(), via_kernel.misses());
        // The driver accounts bandwidth; DM fills on every miss.
        assert_eq!(via_trait.fills(), via_trait.misses());
        assert_eq!(via_trait.probes(), via_trait.accesses());
    }

    #[test]
    fn de_policy_matches_batch_kernel_and_load_counter() {
        let config = config(1024, 4);
        let addrs = trace(20_000);
        let mut policy = DePolicy::new(config, &addrs);
        let via_trait = simulate_policy(config, &addrs, &mut policy);
        let via_kernel = alone(SweepPolicy::DynamicExclusion, config, &addrs)
            .de()
            .expect("a DE point reports DE counters");
        assert_eq!(via_trait.accesses(), via_kernel.stats.accesses());
        assert_eq!(via_trait.misses(), via_kernel.stats.misses());
        // The driver's fill counter is exactly DE's load counter; the
        // bypasses are the remaining misses.
        assert_eq!(via_trait.fills(), via_kernel.loads);
        assert_eq!(via_trait.misses() - via_trait.fills(), via_kernel.bypasses);
    }

    #[test]
    fn ehc_trait_and_batch_agree_bit_for_bit() {
        for (size, line) in [(256, 4), (1024, 4), (4096, 16)] {
            let config = config(size, line);
            let addrs = trace(30_000);
            let mut policy = EhcPolicy::new(config, &addrs);
            let via_trait = simulate_policy(config, &addrs, &mut policy);
            let via_kernel = batch_ehc(config, &addrs);
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
            let via_kernel = batch_bwcost(config, &addrs);
            assert_eq!(via_trait, via_kernel, "S={size} b={line}");
        }
    }

    #[test]
    fn opt_is_a_lower_bound_for_ehc() {
        let config = config(1024, 4);
        let addrs = trace(30_000);
        let ehc = batch_ehc(config, &addrs);
        let opt = alone(SweepPolicy::Optimal, config, &addrs).stats();
        let dm = alone(SweepPolicy::DirectMapped, config, &addrs).stats();
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
        assert_eq!(batch_ehc(config, &addrs).misses(), 21);
        assert_eq!(
            alone(SweepPolicy::Optimal, config, &addrs).stats().misses(),
            21
        );
    }

    #[test]
    fn bwcost_saves_bandwidth_on_thrash() {
        let config = config(64, 4);
        let addrs = thrash();
        let bw = batch_bwcost(config, &addrs);
        let dm = simulate_policy(config, &addrs, &mut DmPolicy);
        // DM fills on all 40 thrashing misses; the selective-fill policy
        // refuses the never-reused alternation after the cold fill.
        assert!(bw.bandwidth_transfers() < dm.bandwidth_transfers());
        assert!(bw.fills() < dm.fills());
    }

    #[test]
    fn bwcost_starvation_counter_forces_fills() {
        // A long no-reuse scan through one set: without the starvation
        // valve only the cold miss would ever fill; with it, every
        // (STARVE_LIMIT+1)-th miss installs.
        let config = config(64, 4);
        let addrs: Vec<u32> = (0..100u32).map(|i| i * 64).collect();
        let bw = batch_bwcost(config, &addrs);
        assert_eq!(bw.misses(), 100);
        assert!(bw.fills() > 1, "starvation valve never opened");
        assert!(bw.fills() < bw.misses());
        // 1 cold fill + one forced fill per STARVE_LIMIT+1 bypassed misses.
        assert_eq!(bw.fills(), 1 + 99 / (STARVE_LIMIT as u64 + 1));
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

    #[test]
    fn driver_supports_set_associative_frames() {
        // A 2-way LRU-free smoke: a trivial policy that installs into the
        // first empty way, else way 0 — exercises the multi-way frame
        // plumbing the trait reserves for future zoo members.
        struct FirstEmpty;
        impl ReplacementPolicy for FirstEmpty {
            fn on_lookup(&mut self, _: usize, _: usize, _: u32, _: Option<usize>) {}
            fn victim(&mut self, _: usize, _: usize, _: u32, resident: &[u32]) -> VictimChoice {
                let way = resident.iter().position(|&t| t == NO_LINE).unwrap_or(0);
                VictimChoice::Install { way }
            }
            fn on_fill(&mut self, _: usize, _: usize, _: u32, _: usize, _: Option<u32>) {}
        }
        let config = CacheConfig::new(128, 4, 2).unwrap();
        // Two lines that conflict in a direct-mapped cache coexist 2-way.
        let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
        let stats = simulate_policy(config, &addrs, &mut FirstEmpty);
        assert_eq!(stats.misses(), 2);
        assert_eq!(stats.fills(), 2);
        assert_eq!(stats.writebacks(), 0);
    }
}
