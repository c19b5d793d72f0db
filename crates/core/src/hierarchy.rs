//! Two-level hierarchies with dynamic exclusion at L1 (Section 5, Figure 6).
//!
//! The hit-last bit of a non-resident block "naturally" lives in the next
//! level of the memory hierarchy, but the L2 cannot catch every L1 miss, so
//! the paper studies three responses to an L2 miss:
//!
//! * **hashed** — forget the L2: keep a tagless table of hit-last bits in L1
//!   (four per line suffice). Structurally simplest; the L2 need not even
//!   know L1 uses dynamic exclusion.
//! * **assume-hit** — store the bit with the L2 line; on an L2 miss assume
//!   the block *would* have hit. Slightly fewer L1 misses, but the L2 must
//!   stay inclusive, so it gains nothing itself.
//! * **assume-miss** — as above but assume *not* hit on an L2 miss. Blocks
//!   resident in L1 need not be stored in L2 at all (exclusion), which is
//!   what lowers the L2 miss rate in Figures 8–9.
//!
//! The hashed strategy also manages L1/L2 contents exclusively (nothing
//! forces inclusion), so it shares the L2 benefit.
//!
//! [`DeHierarchy`] simulates one (L2, strategy) point per reference and is
//! the spec; [`hierarchy_sweep`] runs the whole Figures 7–9 study — one L1
//! over many L2s, conventional and per strategy — either through those
//! spec simulators or through a one-pass kernel with identical statistics.

use std::error::Error;
use std::fmt;

use dynex_cache::{
    de_fsm_index, run_addrs, AccessOutcome, CacheConfig, CacheSim, CacheStats, DirectMapped,
    Geometry, HierarchyStats, Kernel, TwoLevel, DE_FSM_TABLE,
};
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::cache::DeStats;
use crate::{DeEvent, DeLines, HashedStore, HitLastStore};

const INVALID_LINE: u32 = u32::MAX;

/// How the hierarchy answers "what is `h[x]`?" when the L2 cache misses —
/// and, consequently, how L1/L2 contents are managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLastStrategy {
    /// Hit-last bits live in a tagless L1-side table
    /// ([`HashedStore`]); L1/L2 contents are exclusive.
    Hashed {
        /// Table entries per L1 cache line (the paper finds 4 sufficient).
        bits_per_line: u32,
    },
    /// Bits live with L2 lines; an L2 miss predicts "would hit". L2 is
    /// inclusive (every L1 block also occupies L2).
    AssumeHit,
    /// Bits live with L2 lines; an L2 miss predicts "would not hit". L1/L2
    /// contents are exclusive.
    AssumeMiss,
}

impl HitLastStrategy {
    /// `true` for the strategies that keep L1 contents out of L2.
    pub fn is_exclusive(self) -> bool {
        !matches!(self, HitLastStrategy::AssumeHit)
    }

    fn name(self) -> String {
        match self {
            HitLastStrategy::Hashed { bits_per_line } => format!("hashed/{bits_per_line}"),
            HitLastStrategy::AssumeHit => "assume-hit".to_owned(),
            HitLastStrategy::AssumeMiss => "assume-miss".to_owned(),
        }
    }
}

impl fmt::Display for HitLastStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Configuration failure constructing a [`DeHierarchy`] or running a
/// [`hierarchy_sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyError {
    /// L1 and L2 must use the same line size.
    LineMismatch,
    /// L2 must be at least as large as L1.
    L2SmallerThanL1,
    /// Both levels must be direct-mapped.
    NotDirectMapped,
    /// A hashed hit-last table needs a nonzero power-of-two number of bits
    /// per L1 line.
    BadHashWidth,
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::LineMismatch => write!(f, "L1 and L2 line sizes must match"),
            HierarchyError::L2SmallerThanL1 => write!(f, "L2 must be at least as large as L1"),
            HierarchyError::NotDirectMapped => write!(f, "L1 and L2 must be direct-mapped"),
            HierarchyError::BadHashWidth => write!(
                f,
                "hashed hit-last bits per line must be a nonzero power of two"
            ),
        }
    }
}

impl Error for HierarchyError {}

/// The configuration checks shared by [`DeHierarchy`] and
/// [`hierarchy_sweep`]: `l1` over `l2` under each of `strategies`.
fn validate(
    l1: CacheConfig,
    l2: CacheConfig,
    strategies: &[HitLastStrategy],
) -> Result<(), HierarchyError> {
    if l1.line_bytes() != l2.line_bytes() {
        return Err(HierarchyError::LineMismatch);
    }
    if l2.size_bytes() < l1.size_bytes() {
        return Err(HierarchyError::L2SmallerThanL1);
    }
    if l1.associativity() != 1 || l2.associativity() != 1 {
        return Err(HierarchyError::NotDirectMapped);
    }
    for &strategy in strategies {
        if let HitLastStrategy::Hashed { bits_per_line } = strategy {
            if !bits_per_line.is_power_of_two() {
                return Err(HierarchyError::BadHashWidth);
            }
        }
    }
    Ok(())
}

/// Statistics of a [`DeHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeHierarchyStats {
    /// L1 accounting (all references).
    pub l1: CacheStats,
    /// L2 accounting (references that missed in L1).
    pub l2: CacheStats,
    /// L1 dynamic-exclusion counters.
    pub de: DeStats,
}

/// A dynamic-exclusion L1 over a direct-mapped L2, wired per
/// [`HitLastStrategy`].
///
/// This is the organization of the paper's Figures 7–9: L1 miss rate as a
/// function of the L2/L1 size ratio and L2 miss rate as a function of L2
/// size, per strategy.
///
/// # Examples
///
/// ```
/// use dynex::{DeHierarchy, HitLastStrategy};
/// use dynex_cache::{run_addrs, CacheConfig, CacheSim};
///
/// let l1 = CacheConfig::direct_mapped(64, 4)?;
/// let l2 = CacheConfig::direct_mapped(256, 4)?;
/// let mut h = DeHierarchy::new(l1, l2, HitLastStrategy::AssumeMiss)?;
/// run_addrs(&mut h, [0u32, 64, 0, 64, 0, 64]);
/// assert!(h.hierarchy_stats().l1.misses() < 6); // exclusion beats thrashing
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeHierarchy<P: Probe = NoopProbe> {
    l1_config: CacheConfig,
    l2_config: CacheConfig,
    strategy: HitLastStrategy,
    l1: DeLines,
    hashed: Option<HashedStore>,
    l2_geometry: Geometry,
    l2_lines: Vec<u32>,
    l2_hbits: Vec<bool>,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
    de_stats: DeStats,
    probe: P,
}

impl DeHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`HierarchyError`] if the line sizes differ, L2 is smaller
    /// than L1, either level is set-associative, or a hashed strategy's
    /// width is not a nonzero power of two.
    pub fn new(
        l1: CacheConfig,
        l2: CacheConfig,
        strategy: HitLastStrategy,
    ) -> Result<DeHierarchy, HierarchyError> {
        DeHierarchy::with_probe(l1, l2, strategy, NoopProbe)
    }
}

impl<P: Probe> DeHierarchy<P> {
    /// Builds the hierarchy with an attached probe.
    ///
    /// Events describe the L1 (the DE cache): per-reference
    /// [`Event::Access`], the FSM events of [`crate::fsm::step_probed`],
    /// L1 [`Event::Eviction`]s, and an [`Event::HitLastUpdate`] for every
    /// hit-last bit physically written back on displacement (the Figure 6
    /// transfer path, regardless of which strategy stores it).
    ///
    /// # Errors
    ///
    /// Same as [`DeHierarchy::new`].
    pub fn with_probe(
        l1: CacheConfig,
        l2: CacheConfig,
        strategy: HitLastStrategy,
        probe: P,
    ) -> Result<DeHierarchy<P>, HierarchyError> {
        validate(l1, l2, &[strategy])?;
        let hashed = match strategy {
            HitLastStrategy::Hashed { bits_per_line } => Some(HashedStore::new(l1, bits_per_line)),
            _ => None,
        };
        Ok(DeHierarchy {
            l1_config: l1,
            l2_config: l2,
            strategy,
            l1: DeLines::new(l1),
            hashed,
            l2_geometry: l2.geometry(),
            l2_lines: vec![INVALID_LINE; l2.n_sets() as usize],
            l2_hbits: vec![false; l2.n_sets() as usize],
            l1_stats: CacheStats::new(),
            l2_stats: CacheStats::new(),
            de_stats: DeStats::default(),
            probe,
        })
    }

    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consumes the hierarchy, returning the attached probe.
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// The L1 configuration.
    pub fn l1_config(&self) -> CacheConfig {
        self.l1_config
    }

    /// The L2 configuration.
    pub fn l2_config(&self) -> CacheConfig {
        self.l2_config
    }

    /// The hit-last strategy in use.
    pub fn strategy(&self) -> HitLastStrategy {
        self.strategy
    }

    /// Statistics for both levels.
    pub fn hierarchy_stats(&self) -> DeHierarchyStats {
        DeHierarchyStats {
            l1: self.l1_stats,
            l2: self.l2_stats,
            de: self.de_stats,
        }
    }

    /// Whether `addr`'s block is resident in L1 (no state change).
    pub fn l1_contains(&self, addr: u32) -> bool {
        self.l1.contains_line(self.l1.geometry().line_addr(addr))
    }

    /// Whether `addr`'s block is resident in L2 (no state change).
    pub fn l2_contains(&self, addr: u32) -> bool {
        let line = self.l1.geometry().line_addr(addr);
        self.l2_lines[self.l2_geometry.set_of_line(line) as usize] == line
    }

    fn l2_set(&self, line: u32) -> usize {
        self.l2_geometry.set_of_line(line) as usize
    }

    /// Installs `line` in L2 (displacing silently), recording its h bit.
    fn l2_allocate(&mut self, line: u32, h: bool) {
        let set = self.l2_set(line);
        self.l2_lines[set] = line;
        self.l2_hbits[set] = h;
    }
}

impl<P: Probe> CacheSim for DeHierarchy<P> {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.l1.geometry().line_addr(addr);
        let l1_set = self.l1.geometry().set_of_line(line);

        // L1 hit: no L2 involvement, FSM re-arms the line.
        if self.l1.contains_line(line) {
            let event = self.l1.access_line_probed(line, false, &mut self.probe);
            debug_assert_eq!(event, DeEvent::Hit);
            self.probe.emit(Event::Access {
                addr,
                set: l1_set,
                outcome: Outcome::Hit,
                cause: Cause::Resident,
            });
            self.l1_stats.record(AccessOutcome::Hit);
            return AccessOutcome::Hit;
        }

        // L1 miss: the block is fetched via L2.
        let l2_set = self.l2_set(line);
        let l2_hit = self.l2_lines[l2_set] == line;
        self.l2_stats.record(if l2_hit {
            AccessOutcome::Hit
        } else {
            AccessOutcome::Miss
        });

        let h_pred = match self.strategy {
            HitLastStrategy::Hashed { .. } => self
                .hashed
                .as_ref()
                .expect("hashed strategy carries a store")
                .get(line),
            HitLastStrategy::AssumeHit => {
                if l2_hit {
                    self.l2_hbits[l2_set]
                } else {
                    true
                }
            }
            HitLastStrategy::AssumeMiss => {
                if l2_hit {
                    self.l2_hbits[l2_set]
                } else {
                    false
                }
            }
        };

        let event = self.l1.access_line_probed(line, h_pred, &mut self.probe);
        let cause = match event {
            DeEvent::Hit => unreachable!("contains_line was false"),
            DeEvent::Loaded { victim } => {
                self.de_stats.loads += 1;
                // Victim write-back: its hit-last copy returns to wherever
                // non-resident bits live (Figure 6's transfer-on-replacement).
                if let Some((victim_line, victim_h)) = victim {
                    match self.strategy {
                        HitLastStrategy::Hashed { .. } => {
                            self.hashed
                                .as_mut()
                                .expect("hashed strategy carries a store")
                                .set(victim_line, victim_h);
                            self.probe.emit(Event::HitLastUpdate {
                                line: victim_line,
                                hit_last: victim_h,
                            });
                            // Exclusive contents: the eviction fills L2.
                            self.l2_allocate(victim_line, victim_h);
                        }
                        HitLastStrategy::AssumeMiss => {
                            self.l2_allocate(victim_line, victim_h);
                            self.probe.emit(Event::HitLastUpdate {
                                line: victim_line,
                                hit_last: victim_h,
                            });
                        }
                        HitLastStrategy::AssumeHit => {
                            // Inclusive: update the bit if the copy is still
                            // there; a lost copy is simply dropped.
                            let vset = self.l2_set(victim_line);
                            if self.l2_lines[vset] == victim_line {
                                self.l2_hbits[vset] = victim_h;
                                self.probe.emit(Event::HitLastUpdate {
                                    line: victim_line,
                                    hit_last: victim_h,
                                });
                            }
                        }
                    }
                }
                // Content management for the loaded block.
                if self.strategy.is_exclusive() {
                    // Promoted to L1: leaves L2.
                    let set = self.l2_set(line);
                    if self.l2_lines[set] == line {
                        self.l2_lines[set] = INVALID_LINE;
                    }
                } else if !l2_hit {
                    // Inclusive: the memory fetch fills L2 too.
                    self.l2_allocate(line, true);
                }
                if victim.is_some() {
                    Cause::Replace
                } else {
                    Cause::Cold
                }
            }
            DeEvent::Bypassed => {
                self.de_stats.bypasses += 1;
                // The block lives in L2 only (it is not in L1).
                if !l2_hit {
                    self.l2_allocate(line, false);
                }
                Cause::Bypass
            }
        };
        self.probe.emit(Event::Access {
            addr,
            set: l1_set,
            outcome: Outcome::Miss,
            cause,
        });
        self.l1_stats.record(AccessOutcome::Miss);
        AccessOutcome::Miss
    }

    fn stats(&self) -> CacheStats {
        self.l1_stats
    }

    fn label(&self) -> String {
        format!(
            "L1 {} DE({}) + L2 {}",
            self.l1_config, self.strategy, self.l2_config
        )
    }
}

/// One L2 point of a [`hierarchy_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySweepPoint {
    /// The conventional direct-mapped L1 over this L2.
    pub conventional: HierarchyStats,
    /// The dynamic-exclusion L1 over this L2, one entry per strategy in the
    /// order they were given.
    pub de: Vec<DeHierarchyStats>,
}

/// Runs the Section 5 hierarchy study: one L1 over each of `l2s`, as the
/// conventional hierarchy and as a [`DeHierarchy`] per strategy. Returns one
/// point per L2, in order.
///
/// Under [`Kernel::Reference`] every point runs its spec simulator
/// ([`TwoLevel`] over two [`DirectMapped`] caches, or [`DeHierarchy`]). Any
/// other kernel runs the one-pass kernel, which returns the same statistics
/// with fewer and cheaper trace walks:
///
/// * **the conventional L1 does not depend on L2** — one direct-mapped L1
///   walk runs, and each of its misses probes every L2;
/// * **the hashed L1 never reads L2** — one dynamic-exclusion L1 walk per
///   hashed width runs over its [`HashedStore`], and each L1 miss is
///   applied to every L2 in reference order;
/// * **assume-hit and assume-miss read L2's bit** — their L1 depends on the
///   L2, so each (L2, strategy) pair is one coupled walk.
///
/// Every walk keeps flat per-set arrays and steps the L1 through
/// [`DE_FSM_TABLE`]. L2 sets are zero-initialized words holding
/// `(line + 1) << 1 | hit_last`, with 0 meaning empty, so a large L2 faults
/// in only the pages the trace touches.
///
/// # Errors
///
/// Returns the [`HierarchyError`] that [`DeHierarchy::new`] would return
/// for `l1` over some L2 under some strategy. The checks of the two levels
/// apply even when `strategies` is empty.
///
/// # Examples
///
/// ```
/// use dynex::{hierarchy_sweep, HitLastStrategy};
/// use dynex_cache::{CacheConfig, Kernel};
///
/// let l1 = CacheConfig::direct_mapped(64, 4)?;
/// let l2s = [64, 256].map(|size| CacheConfig::direct_mapped(size, 4).unwrap());
/// let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let strategies = [HitLastStrategy::AssumeMiss];
/// let fast = hierarchy_sweep(Kernel::Batch, l1, &l2s, &strategies, &trace)?;
/// assert_eq!(fast, hierarchy_sweep(Kernel::Reference, l1, &l2s, &strategies, &trace)?);
/// assert_eq!(fast[1].conventional.l1.misses(), 20); // L1 thrashes
/// assert_eq!(fast[1].conventional.l2.misses(), 2); // the 256B L2 holds both
/// assert_eq!(fast[1].de[0].l1.misses(), 11); // a stays, b bypasses
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn hierarchy_sweep(
    kernel: Kernel,
    l1: CacheConfig,
    l2s: &[CacheConfig],
    strategies: &[HitLastStrategy],
    addrs: &[u32],
) -> Result<Vec<HierarchySweepPoint>, HierarchyError> {
    for &l2 in l2s {
        validate(l1, l2, strategies)?;
    }
    if kernel == Kernel::Reference {
        return Ok(l2s
            .iter()
            .map(|&l2| reference_point(l1, l2, strategies, addrs))
            .collect());
    }
    Ok(one_pass(l1, l2s, strategies, addrs))
}

/// One point through the spec simulators.
fn reference_point(
    l1: CacheConfig,
    l2: CacheConfig,
    strategies: &[HitLastStrategy],
    addrs: &[u32],
) -> HierarchySweepPoint {
    let mut conventional = TwoLevel::new(DirectMapped::new(l1), DirectMapped::new(l2));
    run_addrs(&mut conventional, addrs.iter().copied());
    let de = strategies
        .iter()
        .map(|&strategy| {
            let mut h = DeHierarchy::new(l1, l2, strategy).expect("validated hierarchy");
            run_addrs(&mut h, addrs.iter().copied());
            h.hierarchy_stats()
        })
        .collect();
    HierarchySweepPoint {
        conventional: conventional.hierarchy_stats(),
        de,
    }
}

/// The one-pass kernel behind [`hierarchy_sweep`]; configurations are
/// already validated.
fn one_pass(
    l1: CacheConfig,
    l2s: &[CacheConfig],
    strategies: &[HitLastStrategy],
    addrs: &[u32],
) -> Vec<HierarchySweepPoint> {
    let mut points: Vec<HierarchySweepPoint> = conventional_walk(l1, l2s, addrs)
        .into_iter()
        .map(|conventional| HierarchySweepPoint {
            conventional,
            de: Vec::with_capacity(strategies.len()),
        })
        .collect();
    for &strategy in strategies {
        let per_l2: Vec<DeHierarchyStats> = match strategy {
            HitLastStrategy::Hashed { bits_per_line } => hashed_walk(l1, bits_per_line, l2s, addrs),
            HitLastStrategy::AssumeHit => l2s
                .iter()
                .map(|&l2| coupled_walk::<true>(l1, l2, addrs))
                .collect(),
            HitLastStrategy::AssumeMiss => l2s
                .iter()
                .map(|&l2| coupled_walk::<false>(l1, l2, addrs))
                .collect(),
        };
        for (point, stats) in points.iter_mut().zip(per_l2) {
            point.de.push(stats);
        }
    }
    points
}

/// A direct-mapped L2 of the one-pass kernel: one zero-initialized word per
/// set, `(line + 1) << 1 | hit_last`, 0 meaning empty (line addresses fit
/// in 30 bits, so the word never overflows).
struct FlatL2 {
    slots: Vec<u32>,
    index_mask: u32,
    misses: u64,
}

impl FlatL2 {
    fn new(config: CacheConfig) -> FlatL2 {
        FlatL2 {
            slots: vec![0; config.n_sets() as usize],
            index_mask: config.n_sets() - 1,
            misses: 0,
        }
    }

    #[inline(always)]
    fn entry(line: u32, hit_last: bool) -> u32 {
        ((line + 1) << 1) | hit_last as u32
    }

    /// Presents an L1 miss: tallies the access and returns `line`'s set
    /// and whether `line` occupies it.
    #[inline(always)]
    fn lookup(&mut self, line: u32) -> (usize, bool) {
        let set = (line & self.index_mask) as usize;
        let hit = self.slots[set] >> 1 == line + 1;
        self.misses += !hit as u64;
        (set, hit)
    }

    /// The hit-last bit stored with `set`'s block.
    #[inline(always)]
    fn hit_last(&self, set: usize) -> bool {
        self.slots[set] & 1 == 1
    }

    /// Installs `line` in its set (displacing silently).
    #[inline(always)]
    fn fill(&mut self, line: u32, hit_last: bool) {
        self.slots[(line & self.index_mask) as usize] = FlatL2::entry(line, hit_last);
    }

    /// Content management after `line`, found in `set` (`hit`), missed in
    /// L1 and caused `event`. An `exclusive` L2 (hashed, assume-miss) gives
    /// a loaded block up and takes its L1 victim back; an inclusive one
    /// (assume-hit) returns the victim's hit-last bit to a copy still in L2
    /// and fills from memory. A bypassed block lives in L2 either way.
    ///
    /// An exclusive load invalidates *before* the victim is copied back:
    /// the invalidation trusts the lookup's `hit`, which names `set`'s
    /// occupant only until the victim lands — and the victim shares
    /// `line`'s L1 set, so at an L2 the size of L1 it shares the L2 set too.
    #[inline(always)]
    fn update(&mut self, set: usize, hit: bool, line: u32, event: DeEvent, exclusive: bool) {
        match event {
            DeEvent::Loaded { victim } if exclusive => {
                if hit {
                    self.slots[set] = 0;
                }
                if let Some((victim_line, victim_h)) = victim {
                    self.fill(victim_line, victim_h);
                }
            }
            DeEvent::Loaded { victim } => {
                if let Some((victim_line, victim_h)) = victim {
                    let vset = (victim_line & self.index_mask) as usize;
                    if self.slots[vset] >> 1 == victim_line + 1 {
                        self.slots[vset] = FlatL2::entry(victim_line, victim_h);
                    }
                }
                if !hit {
                    self.slots[set] = FlatL2::entry(line, true);
                }
            }
            DeEvent::Bypassed => {
                if !hit {
                    self.slots[set] = FlatL2::entry(line, false);
                }
            }
            DeEvent::Hit => unreachable!("only L1 misses reach L2"),
        }
    }
}

/// A dynamic-exclusion L1 of the one-pass kernel: flat tag (`line + 1`, 0
/// empty), sticky and resident hit-last arrays, stepped through
/// [`DE_FSM_TABLE`] like [`DeLines`].
struct FlatDeL1 {
    lines: Vec<u32>,
    sticky: Vec<bool>,
    h_copy: Vec<bool>,
    index_mask: u32,
    loads: u64,
    bypasses: u64,
}

impl FlatDeL1 {
    fn new(config: CacheConfig) -> FlatDeL1 {
        let n = config.n_sets() as usize;
        FlatDeL1 {
            lines: vec![0; n],
            sticky: vec![false; n],
            h_copy: vec![false; n],
            index_mask: config.n_sets() - 1,
            loads: 0,
            bypasses: 0,
        }
    }

    /// Serves `line` if it is resident: the table's hit row re-arms the
    /// sticky bit and the block's hit-last copy.
    #[inline(always)]
    fn hit(&mut self, line: u32) -> bool {
        let set = (line & self.index_mask) as usize;
        let hit = self.lines[set] == line + 1;
        if hit {
            self.sticky[set] = true;
            self.h_copy[set] = true;
        }
        hit
    }

    /// A miss on `line` with `h_pred` as its hit-last bit: loads or
    /// bypasses it, and reports the victim of a load.
    #[inline(always)]
    fn miss(&mut self, line: u32, h_pred: bool) -> DeEvent {
        let set = (line & self.index_mask) as usize;
        let row = DE_FSM_TABLE[de_fsm_index(false, self.sticky[set], h_pred)];
        self.sticky[set] = row.sticky_after;
        if row.installs {
            let resident = self.lines[set];
            let victim = (resident != 0).then(|| (resident - 1, self.h_copy[set]));
            self.lines[set] = line + 1;
            self.h_copy[set] = row.hit_last_value;
            self.loads += 1;
            DeEvent::Loaded { victim }
        } else {
            self.bypasses += 1;
            DeEvent::Bypassed
        }
    }
}

/// Both levels' statistics from an L1 that missed `l1_misses` of
/// `accesses` references and an L2 that missed `l2_misses` of those.
fn level_stats(accesses: usize, l1_misses: u64, l2_misses: u64) -> HierarchyStats {
    HierarchyStats {
        l1: CacheStats::from_counts(accesses as u64, l1_misses),
        l2: CacheStats::from_counts(l1_misses, l2_misses),
    }
}

/// The statistics of a DE L1 walked over `accesses` references above `l2`.
fn de_stats(accesses: usize, de: &FlatDeL1, l2: &FlatL2) -> DeHierarchyStats {
    let levels = level_stats(accesses, de.loads + de.bypasses, l2.misses);
    DeHierarchyStats {
        l1: levels.l1,
        l2: levels.l2,
        de: DeStats {
            loads: de.loads,
            bypasses: de.bypasses,
        },
    }
}

/// Observation (a): one conventional L1 walk whose misses probe every L2.
fn conventional_walk(l1: CacheConfig, l2s: &[CacheConfig], addrs: &[u32]) -> Vec<HierarchyStats> {
    let offset_bits = l1.geometry().offset_bits();
    let mask = l1.n_sets() - 1;
    let mut lines = vec![0u32; l1.n_sets() as usize];
    let mut l2s: Vec<FlatL2> = l2s.iter().map(|&l2| FlatL2::new(l2)).collect();
    let mut misses = 0u64;
    for &addr in addrs {
        let line = addr >> offset_bits;
        let resident = &mut lines[(line & mask) as usize];
        if *resident == line + 1 {
            continue;
        }
        *resident = line + 1;
        misses += 1;
        for l2 in &mut l2s {
            let (set, hit) = l2.lookup(line);
            if !hit {
                l2.slots[set] = FlatL2::entry(line, false);
            }
        }
    }
    l2s.iter()
        .map(|l2| level_stats(addrs.len(), misses, l2.misses))
        .collect()
}

/// Observation (b): one hashed dynamic-exclusion L1 walk whose misses are
/// applied to every L2.
fn hashed_walk(
    l1: CacheConfig,
    bits_per_line: u32,
    l2s: &[CacheConfig],
    addrs: &[u32],
) -> Vec<DeHierarchyStats> {
    let offset_bits = l1.geometry().offset_bits();
    let mut de = FlatDeL1::new(l1);
    let mut store = HashedStore::new(l1, bits_per_line);
    let mut l2s: Vec<FlatL2> = l2s.iter().map(|&l2| FlatL2::new(l2)).collect();
    for &addr in addrs {
        let line = addr >> offset_bits;
        if de.hit(line) {
            continue;
        }
        let event = de.miss(line, store.get(line));
        if let DeEvent::Loaded {
            victim: Some((victim_line, victim_h)),
        } = event
        {
            store.set(victim_line, victim_h);
        }
        for l2 in &mut l2s {
            let (set, hit) = l2.lookup(line);
            l2.update(set, hit, line, event, true);
        }
    }
    l2s.iter()
        .map(|l2| de_stats(addrs.len(), &de, l2))
        .collect()
}

/// Observation (c): one L1 coupled to one L2 that stores the hit-last bits
/// (`ASSUME_HIT` picks assume-hit over assume-miss).
fn coupled_walk<const ASSUME_HIT: bool>(
    l1: CacheConfig,
    l2: CacheConfig,
    addrs: &[u32],
) -> DeHierarchyStats {
    let offset_bits = l1.geometry().offset_bits();
    let mut de = FlatDeL1::new(l1);
    let mut l2 = FlatL2::new(l2);
    for &addr in addrs {
        let line = addr >> offset_bits;
        if de.hit(line) {
            continue;
        }
        let (set, hit) = l2.lookup(line);
        let h_pred = if hit { l2.hit_last(set) } else { ASSUME_HIT };
        let event = de.miss(line, h_pred);
        l2.update(set, hit, line, event, !ASSUME_HIT);
    }
    de_stats(addrs.len(), &de, &l2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(l1: u32, l2: u32, strategy: HitLastStrategy) -> DeHierarchy {
        DeHierarchy::new(
            CacheConfig::direct_mapped(l1, 4).unwrap(),
            CacheConfig::direct_mapped(l2, 4).unwrap(),
            strategy,
        )
        .unwrap()
    }

    /// (a b)^n addresses conflicting in a 64B L1.
    fn within_loop(n: usize) -> Vec<u32> {
        (0..2 * n)
            .map(|i| if i % 2 == 0 { 0 } else { 64 })
            .collect()
    }

    #[test]
    fn construction_validation() {
        let l1 = CacheConfig::direct_mapped(64, 4).unwrap();
        let bad_line = CacheConfig::direct_mapped(256, 16).unwrap();
        assert_eq!(
            DeHierarchy::new(l1, bad_line, HitLastStrategy::AssumeHit).unwrap_err(),
            HierarchyError::LineMismatch
        );
        let small = CacheConfig::direct_mapped(32, 4).unwrap();
        assert_eq!(
            DeHierarchy::new(l1, small, HitLastStrategy::AssumeHit).unwrap_err(),
            HierarchyError::L2SmallerThanL1
        );
    }

    #[test]
    fn set_associative_l2_is_rejected() {
        // Sized by sets, a 2-way L2 used to run as a DM L2 of half the size.
        let l1 = CacheConfig::direct_mapped(64, 4).unwrap();
        let l2 = CacheConfig::new(256, 4, 2).unwrap();
        for strategy in [
            HitLastStrategy::AssumeHit,
            HitLastStrategy::AssumeMiss,
            HitLastStrategy::Hashed { bits_per_line: 4 },
        ] {
            assert_eq!(
                DeHierarchy::new(l1, l2, strategy).unwrap_err(),
                HierarchyError::NotDirectMapped
            );
            for kernel in [Kernel::Reference, Kernel::Batch] {
                assert_eq!(
                    hierarchy_sweep(kernel, l1, &[l2], &[strategy], &[0]).unwrap_err(),
                    HierarchyError::NotDirectMapped
                );
            }
        }
    }

    #[test]
    fn set_associative_l1_is_rejected() {
        let l1 = CacheConfig::new(64, 4, 2).unwrap();
        let l2 = CacheConfig::direct_mapped(256, 4).unwrap();
        assert_eq!(
            DeHierarchy::new(l1, l2, HitLastStrategy::AssumeMiss).unwrap_err(),
            HierarchyError::NotDirectMapped
        );
        // The conventional points alone must reject it too.
        for kernel in [Kernel::Reference, Kernel::Batch] {
            assert_eq!(
                hierarchy_sweep(kernel, l1, &[l2], &[], &[0]).unwrap_err(),
                HierarchyError::NotDirectMapped
            );
        }
    }

    #[test]
    fn bad_hash_width_is_rejected() {
        let l1 = CacheConfig::direct_mapped(64, 4).unwrap();
        let l2 = CacheConfig::direct_mapped(256, 4).unwrap();
        for bits_per_line in [0, 3, 12] {
            let strategy = HitLastStrategy::Hashed { bits_per_line };
            assert_eq!(
                DeHierarchy::new(l1, l2, strategy).unwrap_err(),
                HierarchyError::BadHashWidth,
                "{strategy}"
            );
            for kernel in [Kernel::Reference, Kernel::Batch] {
                assert_eq!(
                    hierarchy_sweep(kernel, l1, &[l2], &[strategy], &[0]).unwrap_err(),
                    HierarchyError::BadHashWidth,
                    "{strategy}"
                );
            }
        }
        for bits_per_line in [1, 2, 16] {
            let strategy = HitLastStrategy::Hashed { bits_per_line };
            assert!(DeHierarchy::new(l1, l2, strategy).is_ok(), "{strategy}");
        }
    }

    /// The traces of the sweep differential: the Section 3 loop patterns
    /// (conflicting in L1 only and in every L2 of a 256B L1), a seeded
    /// random trace whose lines alias in every L2, and the empty trace.
    fn sweep_traces() -> Vec<(&'static str, Vec<u32>)> {
        use dynex_workload::patterns;
        let addrs = |trace: dynex_trace::Trace| trace.iter().map(|a| a.addr()).collect();
        let mut traces = Vec::new();
        for (a, b) in [
            patterns::conflicting_pair(256),
            patterns::conflicting_pair(256 * 64),
        ] {
            traces.push((
                "between loops",
                addrs(patterns::conflict_between_loops(a, b, 10, 10)),
            ));
            traces.push((
                "between loop levels",
                addrs(patterns::conflict_between_loop_levels(a, b, 10, 10)),
            ));
            traces.push((
                "within loop",
                addrs(patterns::conflict_within_loop(a, b, 20)),
            ));
            traces.push((
                "three-way loop",
                addrs(patterns::three_way_loop(a, b, 2 * b, 20)),
            ));
        }
        // Mostly a 192-line hot set (aliasing in the 1x and 2x L2s),
        // a quarter spread over 16Ki lines (aliasing in the 64x one too).
        let mut rng = dynex_cache::SplitMix64::new(19);
        let random = (0..30_000)
            .map(|_| {
                let span = if rng.below(4) == 0 { 16_384 } else { 192 };
                (rng.below(span) as u32) * 4
            })
            .collect();
        traces.push(("random", random));
        traces.push(("empty", Vec::new()));
        traces
    }

    #[test]
    fn one_pass_sweep_matches_spec_simulators() {
        let l1 = CacheConfig::direct_mapped(256, 4).unwrap();
        let l2s = [1, 2, 64].map(|ratio| CacheConfig::direct_mapped(256 * ratio, 4).unwrap());
        let strategies = [
            HitLastStrategy::Hashed { bits_per_line: 4 },
            HitLastStrategy::Hashed { bits_per_line: 1 },
            HitLastStrategy::Hashed { bits_per_line: 16 },
            HitLastStrategy::AssumeHit,
            HitLastStrategy::AssumeMiss,
        ];
        for (name, addrs) in sweep_traces() {
            let reference = hierarchy_sweep(Kernel::Reference, l1, &l2s, &strategies, &addrs)
                .expect("valid sweep");
            for kernel in [Kernel::Batch, Kernel::Sweep] {
                let points =
                    hierarchy_sweep(kernel, l1, &l2s, &strategies, &addrs).expect("valid sweep");
                assert_eq!(points.len(), l2s.len(), "{name}");
                for (point, &l2) in points.iter().zip(&l2s) {
                    let ratio = l2.size_bytes() / l1.size_bytes();
                    let mut conventional =
                        TwoLevel::new(DirectMapped::new(l1), DirectMapped::new(l2));
                    run_addrs(&mut conventional, addrs.iter().copied());
                    assert_eq!(
                        point.conventional,
                        conventional.hierarchy_stats(),
                        "{name}, ratio {ratio}: conventional"
                    );
                    assert_eq!(point.de.len(), strategies.len());
                    for (stats, &strategy) in point.de.iter().zip(&strategies) {
                        let mut h = DeHierarchy::new(l1, l2, strategy).unwrap();
                        run_addrs(&mut h, addrs.iter().copied());
                        assert_eq!(
                            *stats,
                            h.hierarchy_stats(),
                            "{name}, ratio {ratio}: {strategy}"
                        );
                    }
                }
                assert_eq!(points, reference, "{name}: {kernel} vs reference");
            }
        }
    }

    #[test]
    fn assume_miss_excludes_and_halves_thrash() {
        let mut h = hierarchy(64, 256, HitLastStrategy::AssumeMiss);
        let stats = run_addrs(&mut h, within_loop(10));
        // Same steady state as the single-level DE cache: a hits, b bypasses.
        assert_eq!(stats.misses(), 11);
        let hs = h.hierarchy_stats();
        assert_eq!(hs.l2.accesses(), 11);
    }

    #[test]
    fn exclusive_strategies_never_hold_block_in_both_levels() {
        for strategy in [
            HitLastStrategy::AssumeMiss,
            HitLastStrategy::Hashed { bits_per_line: 4 },
        ] {
            let mut h = hierarchy(64, 256, strategy);
            let mut rng = dynex_cache::SplitMix64::new(31);
            for _ in 0..3000 {
                let a = (rng.below(128) as u32) * 4;
                h.access(a);
                assert!(
                    !(h.l1_contains(a) && h.l2_contains(a)),
                    "{strategy}: block in both levels"
                );
            }
        }
    }

    #[test]
    fn assume_hit_keeps_l2_inclusive_of_loads() {
        let mut h = hierarchy(64, 1024, HitLastStrategy::AssumeHit);
        // Small working set, no L2 conflicts: inclusion must hold exactly.
        let mut rng = dynex_cache::SplitMix64::new(32);
        for _ in 0..2000 {
            let a = (rng.below(64) as u32) * 4;
            h.access(a);
            if h.l1_contains(a) {
                assert!(
                    h.l2_contains(a),
                    "inclusive hierarchy lost a resident block"
                );
            }
        }
    }

    #[test]
    fn assume_hit_with_equal_l2_degenerates_to_conventional() {
        // Paper: "if the L2 cache is the same size as the L1 cache, the
        // assume-hit option gives no improvement since the cache degenerates
        // to conventional direct-mapped behavior."
        let mut h = hierarchy(64, 64, HitLastStrategy::AssumeHit);
        let stats = run_addrs(&mut h, within_loop(10));
        assert_eq!(stats.misses(), 20, "every (ab)^10 reference must miss");
    }

    #[test]
    fn assume_miss_lowers_l2_misses_vs_assume_hit() {
        // Working set larger than L2: exclusion gives L2 extra effective
        // capacity. Cyclic sweep over 96 blocks with 64B L1 / 256B L2.
        let addrs: Vec<u32> = (0..20_000).map(|i| ((i % 96) as u32) * 4).collect();
        let mut inclusive = hierarchy(64, 256, HitLastStrategy::AssumeHit);
        let mut exclusive = hierarchy(64, 256, HitLastStrategy::AssumeMiss);
        run_addrs(&mut inclusive, addrs.iter().copied());
        run_addrs(&mut exclusive, addrs.iter().copied());
        let inc = inclusive.hierarchy_stats();
        let exc = exclusive.hierarchy_stats();
        assert!(
            exc.l2.misses() < inc.l2.misses(),
            "exclusion should reduce L2 misses: {} vs {}",
            exc.l2.misses(),
            inc.l2.misses()
        );
    }

    #[test]
    fn large_l2_approaches_perfect_store_behaviour() {
        // With an L2 far larger than the working set, assume-miss behaves
        // like a single-level DE cache with a perfect store.
        let addrs = within_loop(50);
        let mut h = hierarchy(64, 4096, HitLastStrategy::AssumeMiss);
        let h_stats = run_addrs(&mut h, addrs.iter().copied());
        let mut single = crate::DeCache::new(CacheConfig::direct_mapped(64, 4).unwrap());
        let s_stats = run_addrs(&mut single, addrs.iter().copied());
        assert_eq!(h_stats.misses(), s_stats.misses());
    }

    #[test]
    fn hashed_l1_behaviour_independent_of_l2_size() {
        let strategy = HitLastStrategy::Hashed { bits_per_line: 4 };
        let addrs = within_loop(50);
        let mut small = hierarchy(64, 64, strategy);
        let mut big = hierarchy(64, 4096, strategy);
        let s = run_addrs(&mut small, addrs.iter().copied());
        let b = run_addrs(&mut big, addrs.iter().copied());
        assert_eq!(s.misses(), b.misses(), "hashed bits live in L1, not L2");
    }

    #[test]
    fn l2_accesses_equal_l1_misses() {
        for strategy in [
            HitLastStrategy::AssumeHit,
            HitLastStrategy::AssumeMiss,
            HitLastStrategy::Hashed { bits_per_line: 4 },
        ] {
            let mut h = hierarchy(64, 512, strategy);
            let mut rng = dynex_cache::SplitMix64::new(7);
            let addrs: Vec<u32> = (0..5000).map(|_| (rng.below(256) as u32) * 4).collect();
            run_addrs(&mut h, addrs);
            let s = h.hierarchy_stats();
            assert_eq!(s.l2.accesses(), s.l1.misses(), "{strategy}");
            assert_eq!(s.de.loads + s.de.bypasses, s.l1.misses(), "{strategy}");
        }
    }

    #[test]
    fn strategy_display_and_exclusivity() {
        assert_eq!(HitLastStrategy::AssumeHit.to_string(), "assume-hit");
        assert_eq!(HitLastStrategy::AssumeMiss.to_string(), "assume-miss");
        assert_eq!(
            HitLastStrategy::Hashed { bits_per_line: 4 }.to_string(),
            "hashed/4"
        );
        assert!(!HitLastStrategy::AssumeHit.is_exclusive());
        assert!(HitLastStrategy::AssumeMiss.is_exclusive());
        assert!(HitLastStrategy::Hashed { bits_per_line: 2 }.is_exclusive());
    }

    #[test]
    fn error_display() {
        assert!(HierarchyError::LineMismatch.to_string().contains("line"));
        assert!(HierarchyError::L2SmallerThanL1.to_string().contains("L2"));
        assert!(HierarchyError::NotDirectMapped
            .to_string()
            .contains("direct-mapped"));
        assert!(HierarchyError::BadHashWidth
            .to_string()
            .contains("power of two"));
    }

    #[test]
    fn label_names_strategy() {
        let h = hierarchy(64, 256, HitLastStrategy::AssumeMiss);
        assert!(h.label().contains("assume-miss"));
    }

    #[test]
    fn probed_and_bare_runs_are_identical_per_strategy() {
        use dynex_obs::CountingProbe;
        for strategy in [
            HitLastStrategy::AssumeHit,
            HitLastStrategy::AssumeMiss,
            HitLastStrategy::Hashed { bits_per_line: 4 },
        ] {
            let l1 = CacheConfig::direct_mapped(64, 4).unwrap();
            let l2 = CacheConfig::direct_mapped(512, 4).unwrap();
            let mut bare = DeHierarchy::new(l1, l2, strategy).unwrap();
            let mut probed =
                DeHierarchy::with_probe(l1, l2, strategy, CountingProbe::new()).unwrap();
            let mut rng = dynex_cache::SplitMix64::new(43);
            for _ in 0..4000 {
                let a = (rng.below(256) as u32) * 4;
                assert_eq!(bare.access(a), probed.access(a), "{strategy}");
            }
            assert_eq!(
                bare.hierarchy_stats(),
                probed.hierarchy_stats(),
                "{strategy}"
            );
            let c = probed.probe().counts();
            let stats = probed.hierarchy_stats();
            assert_eq!(c.accesses, stats.l1.accesses(), "{strategy}");
            assert_eq!(c.misses, stats.l1.misses(), "{strategy}");
            assert_eq!(c.exclusion_loads, stats.de.loads, "{strategy}");
            assert_eq!(c.exclusion_bypasses, stats.de.bypasses, "{strategy}");
        }
    }
}
