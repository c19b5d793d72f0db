//! The fast kernel for every direct-mapped policy, behind `--kernel batch`
//! and `--kernel sweep` (two names for this one code path).
//!
//! Every figure in the paper replays *one* trace across *many* (size, line,
//! policy) points. [`batch_sweep`] carries N such points through a single
//! pass of the trace; a single point is simply a one-point sweep.
//!
//! * **per-chunk decode per line size** — each [`CHUNK_LEN`] window of byte
//!   addresses is decoded into a reusable line-address buffer once per
//!   *distinct* line size (`line = addr >> offset_bits` depends only on
//!   `offset_bits`), not once per point, and no whole-trace line stream is
//!   ever built.
//! * **one last-use table per line size** — the optimal policy decides
//!   each reference as it arrives, from the position of its line's previous
//!   use. Those positions depend only on the line size, so each chunk's
//!   previous uses are read from (and written to) one per-line table per
//!   line size that has an optimal point, shared by every optimal point at
//!   that line size (plain and last-line alike). The table holds one `u32`
//!   per touched line; nothing is sized by the trace length.
//! * **one use-count window per EHC point** — its horizon scales with the
//!   point's frames, so no two sizes share one; it fills a chunk at a time.
//! * **last-line runs per line size** — the Section 6 last-line buffer
//!   serves every reference that repeats the line before it, so a run
//!   boundary (`line[i] != line[i-1]`) depends only on the line size. Each
//!   chunk's run starts are listed once per line size that has a
//!   last-line point; the DE FSM and the optimal rule step only at those
//!   positions, and every other reference is a buffer hit.
//! * **flat per-point state** — a direct-mapped point owns a flat tag
//!   vector, an optimal point only its sets' ends of the last hit, and a
//!   dynamic-exclusion point one per-set record (resident line, sticky
//!   bit, the resident block's hit-last copy: one 8-byte slot per
//!   reference instead of three vectors) plus its own hit-last bitmap
//!   over its line size's footprint (prescanned only for line sizes that
//!   have a DE or bandwidth-cost point, whose reuse bits use that layout).
//! * **one hit-last allocation** — the DE and bandwidth-cost bitmaps are
//!   disjoint views of one zeroed allocation. A bitmap spans the trace's
//!   whole line range (megabytes when a stack sits near the top of memory),
//!   yet only the words of displaced lines are written: one large zeroed
//!   allocation arrives as fresh pages that stay untouched until then,
//!   while separate mid-size ones may come from recycled heap the allocator
//!   must clear, making them resident in full (a bitmap per point tripled
//!   the peak RSS of a two-worker figure pass).
//! * **hit-first, table-driven FSM** — every DE point steps through the
//!   same precomputed eight-row [`DE_FSM_TABLE`](crate::DE_FSM_TABLE),
//!   hit first. Figure 1's four hit rows are one row (set sticky, set the
//!   block's hit-last bit), so a hit takes it after the tag compare and
//!   reads neither the sticky bit nor the hit-last bitmap; only a miss
//!   reads them and indexes the table.
//! * **chunk-boundary merges** — per-point tallies accumulate in registers
//!   inside a chunk and merge into the per-point totals only at chunk
//!   boundaries, where the observability spans open.
//! * **out-of-line chunk loops** — each policy's chunk loop (and the
//!   last-use scan) is its own `#[inline(never)]` function. It is called
//!   once per chunk, so the call costs nothing, and the code generated for
//!   one policy's loop no longer depends on what the others inline into
//!   the walk (inlined, the dm and de loops lost 3–15% when the optimal
//!   rule joined them).
//!
//! Every point is **bit-identical** to the reference simulator of its
//! policy ([`crate::DirectMapped`], `DeCache` / `LastLineDeCache` /
//! `OptimalDirectMapped` in `dynex-core`, and [`crate::simulate_policy`]
//! for ehc and bwcost): same statistics (traffic counters included for
//! ehc and bwcost), the same load/bypass split ([`DeStats`], reported by
//! the DE points only), and — through [`batch_sweep_probed`] — the same
//! probe event stream in the same order. Points share no state, so each one also
//! equals that point swept alone. `tests/kernel_differential.rs`,
//! `crates/core/tests/de_sweep_lockstep.rs` (the DE points event for event,
//! over all eight Figure 1 rows) and this module's tests (seeded random
//! plans of all seven policies, duplicates included) enforce this.

use dynex_obs::span;
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::batch::CHUNK_LEN;
use crate::direct::INVALID_LINE;
use crate::kernel::{
    assert_positions_fit, de_fsm_index, decode_chunk, hit_last_bit, hit_last_words, max_line,
    set_hit_last_bit, DeFsmRow, DE_FSM_TABLE,
};
use crate::line_table::LineTable;
use crate::policy::{ehc_horizon, EhcWindow, STARVE_LIMIT};
use crate::{CacheConfig, CacheStats, DeStats};

/// The replacement/bypass policy of one sweep point.
///
/// These are the three policies the paper's figures compare, the Section 6
/// last-line variants of DE and OPT that Figures 11 and 12 use for
/// multi-word lines, and the two direct-mapped policies the repository adds
/// beside them: Expected-Hit-Count replacement and bandwidth-aware
/// selective fill, which also count fills, writebacks and probes.
///
/// ```
/// use dynex_cache::{batch_sweep, CacheConfig, SweepPoint, SweepPolicy};
///
/// // (a b)^10 on one line: the dm/de/opt triple of the paper's figures.
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let addrs: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let points = [
///     SweepPoint::new(config, SweepPolicy::DirectMapped),
///     SweepPoint::new(config, SweepPolicy::DynamicExclusion),
///     SweepPoint::new(config, SweepPolicy::Optimal),
/// ];
/// let results = batch_sweep(&points, &addrs);
/// assert_eq!(results[0].0.misses(), 20); // DM thrashes
/// assert_eq!(results[1].0.misses(), 11);
/// assert_eq!(results[1].1.unwrap().bypasses, 10);
/// assert_eq!(results[2].0.misses(), 11);
/// assert!(results[0].1.is_none());
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPolicy {
    /// Conventional direct-mapped (the paper's baseline).
    DirectMapped,
    /// Dynamic exclusion with a perfect hit-last store.
    DynamicExclusion,
    /// The future-knowing optimal direct-mapped cache with bypass.
    Optimal,
    /// Dynamic exclusion behind a last-line buffer (`LastLineDeCache`).
    DeLastLine,
    /// Optimal direct-mapped behind a last-line buffer
    /// (`OptimalDirectMapped::simulate_with_lastline`).
    OptimalLastLine,
    /// Expected-Hit-Count replacement ([`crate::EhcPolicy`]).
    ExpectedHitCount,
    /// Bandwidth-aware selective fill ([`crate::BwCostPolicy`]).
    BandwidthCost,
}

impl SweepPolicy {
    /// Runs the DE state machine (and so owns a hit-last bitmap).
    fn is_de(self) -> bool {
        matches!(
            self,
            SweepPolicy::DynamicExclusion | SweepPolicy::DeLastLine
        )
    }

    /// Reads the last-use table of its line size.
    fn is_optimal(self) -> bool {
        matches!(self, SweepPolicy::Optimal | SweepPolicy::OptimalLastLine)
    }

    /// Owns a bitmap over its line size's footprint: DE's hit-last bits or
    /// bwcost's reuse bits.
    fn owns_bitmap(self) -> bool {
        self.is_de() || self == SweepPolicy::BandwidthCost
    }
}

/// One point of a multi-configuration sweep: a cache geometry under a
/// policy.
///
/// ```
/// use dynex_cache::{batch_sweep, CacheConfig, SweepPoint, SweepPolicy};
///
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let point = SweepPoint::new(config, SweepPolicy::DirectMapped);
/// let (stats, _) = batch_sweep(&[point], &[0, 0, 64, 0])[0];
/// assert_eq!(stats.misses(), 3); // cold, hit, conflict, conflict
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepPoint {
    /// The cache geometry to simulate.
    pub config: CacheConfig,
    /// The replacement/bypass policy.
    pub policy: SweepPolicy,
}

impl SweepPoint {
    /// Creates a sweep point.
    pub fn new(config: CacheConfig, policy: SweepPolicy) -> SweepPoint {
        SweepPoint { config, policy }
    }
}

/// Per-set state of one direct-mapped sweep point.
struct DmSweep {
    lines: Vec<u32>,
    index_mask: u32,
    misses: u64,
}

impl DmSweep {
    fn new(n_sets: usize, index_mask: u32) -> DmSweep {
        DmSweep {
            lines: vec![INVALID_LINE; n_sets],
            index_mask,
            misses: 0,
        }
    }

    /// One chunk of conventional direct-mapped accesses, emitting exactly
    /// the events of [`crate::DirectMapped`]. The miss tally lives in a
    /// register inside the loop and merges at the chunk boundary.
    #[inline(never)]
    fn run_chunk<P: Probe>(&mut self, addrs: &[u32], lines: &[u32], probe: &mut P) {
        let mask = self.index_mask;
        let mut misses = 0u64;
        for (&addr, &line) in addrs.iter().zip(lines) {
            let set = (line & mask) as usize;
            let resident = self.lines[set];
            if resident == line {
                probe.emit(Event::Access {
                    addr,
                    set: set as u32,
                    outcome: Outcome::Hit,
                    cause: Cause::Resident,
                });
            } else {
                let cause = if resident == INVALID_LINE {
                    Cause::Cold
                } else {
                    probe.emit(Event::Eviction {
                        set: set as u32,
                        victim: resident,
                        replacement: line,
                    });
                    Cause::Replace
                };
                self.lines[set] = line;
                misses += 1;
                probe.emit(Event::Access {
                    addr,
                    set: set as u32,
                    outcome: Outcome::Miss,
                    cause,
                });
            }
        }
        self.misses += misses;
    }
}

/// The row every hit takes: the four hit rows of Figure 1 are one row
/// (`kernel::tests` checks it), so a hit needs neither the set's sticky bit
/// nor the block's hit-last bit to pick it.
const HIT_ROW: DeFsmRow = DE_FSM_TABLE[de_fsm_index(true, false, false)];

/// The per-set record of one dynamic-exclusion sweep point: the resident
/// line, the set's sticky bit and the resident block's in-line hit-last
/// copy, side by side so a reference touches one slot.
#[derive(Clone, Copy)]
struct DeSet {
    line: u32,
    sticky: bool,
    h_copy: bool,
}

/// Per-set state of one dynamic-exclusion sweep point, with its own
/// hit-last bitmap for the blocks that are not resident (a view of the
/// sweep's one hit-last allocation).
struct DeSweep<'a> {
    sets: Vec<DeSet>,
    hit_last: &'a mut [u64],
    index_mask: u32,
    misses: u64,
    loads: u64,
}

impl<'a> DeSweep<'a> {
    fn new(n_sets: usize, index_mask: u32, hit_last: &'a mut [u64]) -> DeSweep<'a> {
        let empty = DeSet {
            line: INVALID_LINE,
            sticky: false,
            h_copy: false,
        };
        DeSweep {
            sets: vec![empty; n_sets],
            hit_last,
            index_mask,
            misses: 0,
            loads: 0,
        }
    }

    /// One chunk of dynamic-exclusion accesses through the precomputed
    /// table, emitting exactly the events (and in the order) of the
    /// reference `DeCache`/`DeLines`/`fsm::step_probed` stack. Tallies merge
    /// at the chunk boundary.
    #[inline(never)]
    fn run_chunk<P: Probe>(&mut self, addrs: &[u32], lines: &[u32], probe: &mut P) {
        let mut misses = 0u64;
        let mut loads = 0u64;
        for (&addr, &line) in addrs.iter().zip(lines) {
            let row = self.step(addr, line, probe);
            misses += row.is_miss as u64;
            loads += row.installs as u64;
        }
        self.misses += misses;
        self.loads += loads;
    }

    /// One chunk behind the last-line buffer, emitting exactly the events
    /// of the reference `LastLineDeCache`: the FSM steps only at the
    /// chunk's run starts (`starts`, ascending offsets into the chunk), as
    /// the inner cache does for a line address (`line << offset_bits`);
    /// every other reference is a buffer hit.
    #[inline(never)]
    fn run_chunk_lastline<P: Probe>(
        &mut self,
        addrs: &[u32],
        lines: &[u32],
        starts: &[u32],
        offset_bits: u32,
        probe: &mut P,
    ) {
        let mut misses = 0u64;
        let mut loads = 0u64;
        let mut cursor = 0;
        for &start in starts {
            let start = start as usize;
            self.buffer_hits(&addrs[cursor..start], &lines[cursor..start], probe);
            let line = lines[start];
            let row = self.step(line << offset_bits, line, probe);
            misses += row.is_miss as u64;
            loads += row.installs as u64;
            cursor = start + 1;
        }
        self.buffer_hits(&addrs[cursor..], &lines[cursor..], probe);
        self.misses += misses;
        self.loads += loads;
    }

    /// References served by the last-line buffer: hits that touch no DE
    /// state (and compile to nothing under a no-op probe).
    #[inline(always)]
    fn buffer_hits<P: Probe>(&self, addrs: &[u32], lines: &[u32], probe: &mut P) {
        for (&addr, &line) in addrs.iter().zip(lines) {
            probe.emit(Event::Access {
                addr,
                set: line & self.index_mask,
                outcome: Outcome::Hit,
                cause: Cause::LineBuffer,
            });
        }
    }

    /// One reference through the Figure 1 table; returns the row taken
    /// (`installs` is set only for misses that load). A hit takes
    /// [`HIT_ROW`] before anything else is read; only a miss reads the
    /// sticky bit and the hit-last bitmap.
    #[inline(always)]
    fn step<P: Probe>(&mut self, addr: u32, line: u32, probe: &mut P) -> DeFsmRow {
        let set = (line & self.index_mask) as usize;
        let entry = &mut self.sets[set];
        if entry.line == line {
            if !entry.sticky {
                probe.emit(Event::StickyFlip {
                    set: set as u32,
                    sticky: HIT_ROW.sticky_after,
                });
            }
            probe.emit(Event::HitLastUpdate {
                line,
                hit_last: HIT_ROW.hit_last_value,
            });
            // The resident block's in-line hit-last copy is re-armed.
            entry.sticky = HIT_ROW.sticky_after;
            entry.h_copy = HIT_ROW.hit_last_value;
            probe.emit(Event::Access {
                addr,
                set: set as u32,
                outcome: Outcome::Hit,
                cause: Cause::Resident,
            });
            return HIT_ROW;
        }

        let resident = entry.line;
        let sticky = entry.sticky;
        let h_pred = hit_last_bit(self.hit_last, line);
        let row = DE_FSM_TABLE[de_fsm_index(false, sticky, h_pred)];
        probe.emit(Event::ExclusionDecision {
            set: set as u32,
            line,
            loaded: row.installs,
        });
        if row.sticky_after != sticky {
            probe.emit(Event::StickyFlip {
                set: set as u32,
                sticky: row.sticky_after,
            });
        }
        if row.writes_hit_last {
            probe.emit(Event::HitLastUpdate {
                line,
                hit_last: row.hit_last_value,
            });
        }
        entry.sticky = row.sticky_after;

        let cause = if row.installs {
            let cause = if resident == INVALID_LINE {
                Cause::Cold
            } else {
                // Figure 6 "transfer on replacement": the victim's
                // in-line copy goes back to the bitmap.
                set_hit_last_bit(self.hit_last, resident, entry.h_copy);
                probe.emit(Event::Eviction {
                    set: set as u32,
                    victim: resident,
                    replacement: line,
                });
                Cause::Replace
            };
            entry.line = line;
            entry.h_copy = row.hit_last_value;
            cause
        } else {
            Cause::Bypass
        };
        probe.emit(Event::Access {
            addr,
            set: set as u32,
            outcome: Outcome::Miss,
            cause,
        });
        row
    }
}

/// Per-set state of one optimal sweep point.
///
/// The optimal direct-mapped cache with bypass hits reference t of line x
/// exactly when x stays resident from its previous use p to t, so no other
/// block of the set is kept anywhere in between. Its hits are therefore a
/// largest set of non-overlapping same-set intervals [p, t], and the
/// earliest-end greedy of interval scheduling finds one in time order:
/// accept [p, t] iff p lies at or after the end of the set's last accepted
/// interval. That rule needs one `u32` per set and the previous use of the
/// current reference, both known at t; it yields the miss count of the
/// reference `OptimalDirectMapped` (Belady's keep-whichever-is-used-sooner
/// rule), which `tests/kernel_differential.rs` checks on random traces.
struct OptSweep {
    /// 1 + the position of the set's last hit, and 1 before any hit: a
    /// previous use (stored as 1 + its position, 0 for none) at or after
    /// it hits.
    end: Vec<u32>,
    index_mask: u32,
    misses: u64,
}

impl OptSweep {
    fn new(n_sets: usize, index_mask: u32) -> OptSweep {
        OptSweep {
            end: vec![1; n_sets],
            index_mask,
            misses: 0,
        }
    }

    /// One reference of line `line` at 1-based position `at`, whose
    /// previous use is `prev` (1-based, 0 for none); returns whether it
    /// misses.
    #[inline(always)]
    fn step(&mut self, line: u32, prev: u32, at: u32) -> bool {
        let end = &mut self.end[(line & self.index_mask) as usize];
        let hit = prev >= *end;
        if hit {
            *end = at;
        }
        !hit
    }

    /// One chunk of the forward optimal rule; `prev` holds the chunk's
    /// previous uses from its line size's [`LastUses`] and `pos` is the
    /// chunk's first trace position. Tallies merge at the chunk boundary.
    #[inline(never)]
    fn run_chunk(&mut self, lines: &[u32], prev: &[u32], pos: u32) {
        let mut misses = 0u64;
        for ((&line, &prev), at) in lines.iter().zip(prev).zip(pos + 1..) {
            misses += self.step(line, prev, at) as u64;
        }
        self.misses += misses;
    }

    /// One chunk behind the last-line buffer: the same rule at the chunk's
    /// run starts only, the references the inner cache of the reference
    /// `OptimalDirectMapped::simulate_with_lastline` sees; every other
    /// reference is a buffer hit. A run start's previous use is the last
    /// position of its line's previous run, and that position is at or
    /// after the start of a run exactly when its run is not earlier, so
    /// the rule over trace positions decides as it would over run indices.
    #[inline(never)]
    fn run_chunk_lastline(&mut self, lines: &[u32], prev: &[u32], starts: &[u32], pos: u32) {
        let mut misses = 0u64;
        for &start in starts {
            let i = start as usize;
            misses += self.step(lines[i], prev[i], pos + start + 1) as u64;
        }
        self.misses += misses;
    }
}

/// The misses, fills and writebacks of an EHC or bandwidth-cost point, as
/// [`crate::simulate_policy`] counts them (every access is a probe).
#[derive(Clone, Copy, Default)]
struct Traffic {
    misses: u64,
    fills: u64,
    writebacks: u64,
}

impl Traffic {
    fn stats(self, accesses: u64) -> CacheStats {
        CacheStats::from_traffic_counts(
            accesses,
            self.misses,
            self.fills,
            self.writebacks,
            accesses,
        )
    }
}

/// The per-set record of one EHC sweep point: the resident line and the
/// hit count it has left within the horizon (0 for an empty set).
#[derive(Clone, Copy)]
struct EhcSet {
    line: u32,
    hits: u32,
}

/// Per-set state of one Expected-Hit-Count sweep point and its own window.
struct EhcSweep<'a> {
    sets: Vec<EhcSet>,
    window: EhcWindow<'a>,
    /// The windowed hit counts of the current chunk.
    hits: Vec<u32>,
    index_mask: u32,
    traffic: Traffic,
}

impl<'a> EhcSweep<'a> {
    fn new(n_sets: usize, index_mask: u32, window: EhcWindow<'a>) -> EhcSweep<'a> {
        let empty = EhcSet {
            line: INVALID_LINE,
            hits: 0,
        };
        EhcSweep {
            sets: vec![empty; n_sets],
            window,
            hits: vec![0; CHUNK_LEN],
            index_mask,
            traffic: Traffic::default(),
        }
    }

    /// One chunk of EHC decisions over the chunk's counts in `hits`: a hit
    /// refreshes the resident's count, and a miss installs only a block
    /// with strictly more hits left than the resident.
    #[inline(never)]
    fn run_chunk(&mut self, lines: &[u32]) {
        let mut traffic = self.traffic;
        for (&line, &hits) in lines.iter().zip(&self.hits) {
            let set = &mut self.sets[(line & self.index_mask) as usize];
            if set.line == line {
                set.hits = hits;
            } else {
                traffic.misses += 1;
                if hits > set.hits {
                    traffic.fills += 1;
                    traffic.writebacks += (set.line != INVALID_LINE) as u64;
                    *set = EhcSet { line, hits };
                }
            }
        }
        self.traffic = traffic;
    }
}

/// The per-set record of one bandwidth-cost sweep point: the resident line
/// and the live copy of its reuse bit (set once it hits).
#[derive(Clone, Copy)]
struct BwCostSet {
    line: u32,
    r_copy: bool,
}

/// Per-set state of one bandwidth-aware selective-fill sweep point, with
/// its global starvation counter and its per-line reuse bitmap (a view of
/// the sweep's one hit-last allocation).
struct BwCostSweep<'a> {
    sets: Vec<BwCostSet>,
    reuse: &'a mut [u64],
    starve: u8,
    index_mask: u32,
    traffic: Traffic,
}

impl<'a> BwCostSweep<'a> {
    fn new(n_sets: usize, index_mask: u32, reuse: &'a mut [u64]) -> BwCostSweep<'a> {
        let empty = BwCostSet {
            line: INVALID_LINE,
            r_copy: false,
        };
        BwCostSweep {
            sets: vec![empty; n_sets],
            reuse,
            starve: 0,
            index_mask,
            traffic: Traffic::default(),
        }
    }

    /// One chunk of selective fills: a miss installs into an empty set, a
    /// block whose reuse bit is set, or any block once [`STARVE_LIMIT`]
    /// misses in a row have bypassed; the victim's reuse copy goes back.
    #[inline(never)]
    fn run_chunk(&mut self, lines: &[u32]) {
        let mut traffic = self.traffic;
        let mut starve = self.starve;
        for &line in lines {
            let set = &mut self.sets[(line & self.index_mask) as usize];
            if set.line == line {
                set.r_copy = true;
            } else {
                traffic.misses += 1;
                let empty = set.line == INVALID_LINE;
                if empty || hit_last_bit(self.reuse, line) || starve >= STARVE_LIMIT {
                    traffic.fills += 1;
                    if !empty {
                        traffic.writebacks += 1;
                        set_hit_last_bit(self.reuse, set.line, set.r_copy);
                    }
                    *set = BwCostSet {
                        line,
                        r_copy: false,
                    };
                    starve = 0;
                } else {
                    starve += 1;
                }
            }
        }
        self.traffic = traffic;
        self.starve = starve;
    }
}

/// The previous uses of one line size's decoded chunks, carried across
/// chunk boundaries in a per-line table of last uses: `prev[i]` is 1 + the
/// trace position of the last earlier reference to the line of chunk
/// offset `i`, or 0 when there is none. These are what the optimal points
/// of that line size decide from.
struct LastUses {
    last: LineTable,
    prev: Vec<u32>,
}

impl LastUses {
    fn new() -> LastUses {
        LastUses {
            last: LineTable::new(0),
            prev: vec![0; CHUNK_LEN],
        }
    }

    /// Reads the previous uses of the next chunk of `lines`, whose first
    /// trace position is `pos`, and records the chunk's own uses.
    #[inline(never)]
    fn scan(&mut self, lines: &[u32], pos: u32) {
        for ((prev, &line), at) in self.prev.iter_mut().zip(lines).zip(pos + 1..) {
            let slot = self.last.slot(line);
            *prev = *slot;
            *slot = at;
        }
    }
}

/// The run starts of one line size's decoded chunks: the offsets whose line
/// differs from the reference before it, carried across chunk boundaries.
/// These are exactly the references a last-line buffer misses.
#[derive(Clone)]
struct RunStarts {
    prev: Option<u32>,
    starts: Vec<u32>,
}

impl RunStarts {
    fn new() -> RunStarts {
        RunStarts {
            prev: None,
            starts: Vec::with_capacity(CHUNK_LEN),
        }
    }

    /// Lists the run starts of the next chunk of `lines`.
    fn scan(&mut self, lines: &[u32]) {
        self.starts.clear();
        let mut prev = self.prev;
        for (i, &line) in (0..).zip(lines) {
            if prev != Some(line) {
                self.starts.push(i);
            }
            prev = Some(line);
        }
        self.prev = prev;
    }
}

enum PointState<'a> {
    Dm(DmSweep),
    De(DeSweep<'a>),
    Opt(OptSweep),
    DeLastLine(DeSweep<'a>),
    OptLastLine(OptSweep),
    Ehc(EhcSweep<'a>),
    BwCost(BwCostSweep<'a>),
}

/// Carries N cache geometries through a single trace traversal.
///
/// Returns each point's statistics, in point order, with the load/bypass
/// split of the dynamic-exclusion points (`DynamicExclusion` and
/// `DeLastLine`; `None` for the others). The `ExpectedHitCount` and
/// `BandwidthCost` points also count fills, writebacks and probes, as
/// [`crate::simulate_policy`] does.
///
/// Bit-identical per point to the reference simulator of its policy; what
/// the sweep buys is decoding each chunk once per distinct line size,
/// reading each distinct line size's previous uses once, and walking the
/// trace once for the whole plan instead of once per point.
///
/// Points may repeat geometries (each keeps fully independent state) and
/// may be a single point, which is how every one-point direct-mapped
/// simulation on the fast path runs.
///
/// # Panics
///
/// Panics if any point's `config.associativity() != 1`, like the reference
/// simulators, or if an optimal or EHC point meets a trace of `u32::MAX`
/// or more references.
///
/// # Examples
///
/// ```
/// use dynex_cache::{batch_sweep, CacheConfig, SweepPoint, SweepPolicy};
///
/// let small = CacheConfig::direct_mapped(64, 4)?;
/// let large = CacheConfig::direct_mapped(256, 4)?;
/// let addrs: Vec<u32> = (0..100).map(|i| (i % 40) * 4).collect();
/// let points = [
///     SweepPoint::new(small, SweepPolicy::DirectMapped),
///     SweepPoint::new(large, SweepPolicy::DirectMapped),
/// ];
/// let results = batch_sweep(&points, &addrs);
/// // Points share no state: each equals that point swept alone.
/// assert_eq!(results[0], batch_sweep(&points[..1], &addrs)[0]);
/// assert_eq!(results[1], batch_sweep(&points[1..], &addrs)[0]);
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
pub fn batch_sweep(points: &[SweepPoint], addrs: &[u32]) -> Vec<(CacheStats, Option<DeStats>)> {
    let mut probes = vec![NoopProbe; points.len()];
    batch_sweep_probed(points, addrs, &mut probes)
}

/// [`batch_sweep`] with per-point event emission: `probes[i]` receives
/// exactly the events the reference simulator would emit for `points[i]`,
/// in the same order (the optimal, EHC and bandwidth-cost policies emit
/// none, as in the reference path).
///
/// # Panics
///
/// Panics if `probes.len() != points.len()`, if any point's associativity
/// is not 1, or if an optimal or EHC point meets a trace of `u32::MAX` or
/// more references.
pub fn batch_sweep_probed<P: Probe>(
    points: &[SweepPoint],
    addrs: &[u32],
    probes: &mut [P],
) -> Vec<(CacheStats, Option<DeStats>)> {
    assert_eq!(points.len(), probes.len(), "one probe per sweep point");
    for point in points {
        assert_eq!(
            point.config.associativity(),
            1,
            "the sweep kernel is a direct-mapped comparison"
        );
    }
    if points.is_empty() {
        return Vec::new();
    }

    // Distinct line geometries, in first-appearance order. The line address
    // stream depends only on offset_bits, so points sharing a line size
    // share one decode and (for optimal points) one last-use table.
    let mut offsets: Vec<u32> = Vec::new();
    let offset_of: Vec<usize> = points
        .iter()
        .map(|p| {
            let ob = p.config.geometry().offset_bits();
            offsets.iter().position(|&o| o == ob).unwrap_or_else(|| {
                offsets.push(ob);
                offsets.len() - 1
            })
        })
        .collect();

    // Per-line-size work, done only where a point needs it: the footprint
    // prescan that sizes the DE and bwcost bitmaps, the last-use table of
    // the optimal points, and the run starts of the last-line points.
    let mut max_by: Vec<Option<u32>> = vec![None; offsets.len()];
    let mut last_by: Vec<Option<LastUses>> = offsets.iter().map(|_| None).collect();
    let mut runs_by: Vec<Option<RunStarts>> = vec![None; offsets.len()];
    for (point, &oi) in points.iter().zip(&offset_of) {
        if point.policy.owns_bitmap() && max_by[oi].is_none() {
            let _decode = span::span("kernel.decode");
            max_by[oi] = Some(max_line(addrs, offsets[oi]));
        }
        if point.policy.is_optimal() && last_by[oi].is_none() {
            assert_positions_fit(addrs.len());
            last_by[oi] = Some(LastUses::new());
        }
        if matches!(
            point.policy,
            SweepPolicy::DeLastLine | SweepPolicy::OptimalLastLine
        ) && runs_by[oi].is_none()
        {
            runs_by[oi] = Some(RunStarts::new());
        }
    }
    // The oracle stage, `kernel.next-use`: the optimal points' previous-use
    // scans and the EHC points' window fills.
    let any_next_use = points
        .iter()
        .any(|p| p.policy.is_optimal() || p.policy == SweepPolicy::ExpectedHitCount);

    // One zeroed allocation holds every DE and bwcost point's bitmap (see
    // the module docs); each point takes the next disjoint slice of it.
    let words_of = |oi: usize| {
        hit_last_words(max_by[oi].expect("footprint prescanned for every bitmap line size"))
    };
    let slab_words = points
        .iter()
        .zip(&offset_of)
        .filter(|(point, _)| point.policy.owns_bitmap())
        .map(|(_, &oi)| words_of(oi))
        .sum();
    let mut slab = vec![0u64; slab_words];
    let mut unclaimed: &mut [u64] = &mut slab;
    let mut state: Vec<PointState> = points
        .iter()
        .zip(&offset_of)
        .map(|(point, &oi)| {
            let n_sets = point.config.n_sets() as usize;
            let index_mask = (1u32 << point.config.geometry().index_bits()) - 1;
            let mut bitmap = || {
                let (bitmap, rest) = std::mem::take(&mut unclaimed).split_at_mut(words_of(oi));
                unclaimed = rest;
                bitmap
            };
            match point.policy {
                SweepPolicy::DirectMapped => PointState::Dm(DmSweep::new(n_sets, index_mask)),
                SweepPolicy::DynamicExclusion => {
                    PointState::De(DeSweep::new(n_sets, index_mask, bitmap()))
                }
                SweepPolicy::Optimal => PointState::Opt(OptSweep::new(n_sets, index_mask)),
                SweepPolicy::DeLastLine => {
                    PointState::DeLastLine(DeSweep::new(n_sets, index_mask, bitmap()))
                }
                SweepPolicy::OptimalLastLine => {
                    PointState::OptLastLine(OptSweep::new(n_sets, index_mask))
                }
                SweepPolicy::ExpectedHitCount => {
                    let window = {
                        let _next_use = span::span("kernel.next-use");
                        EhcWindow::new(addrs, offsets[oi], ehc_horizon(point.config))
                    };
                    PointState::Ehc(EhcSweep::new(n_sets, index_mask, window))
                }
                SweepPolicy::BandwidthCost => {
                    PointState::BwCost(BwCostSweep::new(n_sets, index_mask, bitmap()))
                }
            }
        })
        .collect();

    // The one-pass walk: each chunk is decoded once per line size, then
    // every point consumes it before the window advances, so each point's
    // per-set state is touched in trace order while the window stays in
    // cache. Spans open at chunk boundaries only (two relaxed atomic loads
    // per chunk when tracing is off); the inner loops stay branchless.
    let mut line_bufs = vec![[0u32; CHUNK_LEN]; offsets.len()];
    for (pos, chunk) in (0..).step_by(CHUNK_LEN).zip(addrs.chunks(CHUNK_LEN)) {
        {
            let _decode = span::span("kernel.decode");
            for (buf, &offset_bits) in line_bufs.iter_mut().zip(&offsets) {
                decode_chunk(chunk, offset_bits, buf);
            }
            for (runs, buf) in runs_by.iter_mut().zip(&line_bufs) {
                if let Some(runs) = runs {
                    runs.scan(&buf[..chunk.len()]);
                }
            }
        }
        if any_next_use {
            let _next_use = span::span("kernel.next-use");
            for (last, buf) in last_by.iter_mut().zip(&line_bufs) {
                if let Some(last) = last {
                    last.scan(&buf[..chunk.len()], pos as u32);
                }
            }
            for point_state in &mut state {
                if let PointState::Ehc(ehc) = point_state {
                    ehc.window.fill(&mut ehc.hits[..chunk.len()]);
                }
            }
        }
        let _simulate = span::span("kernel.simulate");
        for ((point_state, &oi), probe) in state.iter_mut().zip(&offset_of).zip(probes.iter_mut()) {
            let lines = &line_bufs[oi][..chunk.len()];
            let prev = || {
                let last = last_by[oi]
                    .as_ref()
                    .expect("last uses scanned for every optimal line size");
                &last.prev[..chunk.len()]
            };
            let starts = || {
                let runs = runs_by[oi]
                    .as_ref()
                    .expect("run starts listed for every last-line line size");
                &runs.starts[..]
            };
            match point_state {
                PointState::Dm(dm) => dm.run_chunk(chunk, lines, probe),
                PointState::De(de) => de.run_chunk(chunk, lines, probe),
                PointState::Opt(opt) => opt.run_chunk(lines, prev(), pos as u32),
                PointState::DeLastLine(de) => {
                    de.run_chunk_lastline(chunk, lines, starts(), offsets[oi], probe);
                }
                PointState::OptLastLine(opt) => {
                    opt.run_chunk_lastline(lines, prev(), starts(), pos as u32)
                }
                PointState::Ehc(ehc) => ehc.run_chunk(lines),
                PointState::BwCost(bwcost) => bwcost.run_chunk(lines),
            }
        }
    }

    let accesses = addrs.len() as u64;
    state
        .into_iter()
        .map(|point_state| match point_state {
            PointState::Dm(DmSweep { misses, .. })
            | PointState::Opt(OptSweep { misses, .. })
            | PointState::OptLastLine(OptSweep { misses, .. }) => {
                (CacheStats::from_counts(accesses, misses), None)
            }
            PointState::De(de) | PointState::DeLastLine(de) => {
                let counters = DeStats {
                    loads: de.loads,
                    bypasses: de.misses - de.loads,
                };
                (CacheStats::from_counts(accesses, de.misses), Some(counters))
            }
            PointState::Ehc(EhcSweep { traffic, .. })
            | PointState::BwCost(BwCostSweep { traffic, .. }) => (traffic.stats(accesses), None),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_policy, BwCostPolicy, EhcPolicy, SplitMix64};
    use dynex_obs::EventLog;

    fn config(size: u32, line: u32) -> CacheConfig {
        CacheConfig::direct_mapped(size, line).unwrap()
    }

    fn random_addrs(seed: u64, len: usize, span: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        (0..len).map(|_| (rng.below(span) as u32) * 4).collect()
    }

    fn all_policies(cfg: CacheConfig) -> Vec<SweepPoint> {
        vec![
            SweepPoint::new(cfg, SweepPolicy::DirectMapped),
            SweepPoint::new(cfg, SweepPolicy::DynamicExclusion),
            SweepPoint::new(cfg, SweepPolicy::Optimal),
        ]
    }

    /// Every point of the sweep equals that point swept alone: points share
    /// no state.
    fn assert_matches_single(points: &[SweepPoint], addrs: &[u32]) {
        let results = batch_sweep(points, addrs);
        assert_eq!(results.len(), points.len());
        for (point, result) in points.iter().zip(&results) {
            assert_eq!(
                *result,
                batch_sweep(&[*point], addrs)[0],
                "{:?} @ {}",
                point.policy,
                point.config
            );
        }
    }

    #[test]
    fn sweep_matches_single_kernels_across_geometries() {
        let addrs = random_addrs(3, 30_000, 50_000);
        let mut points = Vec::new();
        for size in [64u32, 1024, 8192, 32 * 1024] {
            for line in [4u32, 16] {
                points.extend(all_policies(config(size, line)));
            }
        }
        assert_matches_single(&points, &addrs);
    }

    #[test]
    fn duplicate_points_keep_independent_state() {
        let addrs = random_addrs(9, 10_000, 2_048);
        let cfg = config(256, 4);
        let points = vec![
            SweepPoint::new(cfg, SweepPolicy::DynamicExclusion),
            SweepPoint::new(cfg, SweepPolicy::DynamicExclusion),
            SweepPoint::new(cfg, SweepPolicy::DirectMapped),
            SweepPoint::new(cfg, SweepPolicy::DirectMapped),
        ];
        let results = batch_sweep(&points, &addrs);
        assert_eq!(results[0], results[1], "duplicates agree with each other");
        assert_eq!(results[2], results[3]);
        assert_matches_single(&points, &addrs);
    }

    #[test]
    fn degenerate_single_point_sweep_equals_single_kernel() {
        let addrs = random_addrs(5, 7_000, 512);
        for policy in [
            SweepPolicy::DirectMapped,
            SweepPolicy::DynamicExclusion,
            SweepPolicy::Optimal,
        ] {
            assert_matches_single(&[SweepPoint::new(config(1024, 16), policy)], &addrs);
        }
    }

    #[test]
    fn sweep_agrees_with_fused_triple() {
        // The fused dm/de/opt triple: each of its points equals that point
        // swept alone.
        let addrs = random_addrs(17, 20_000, 8_192);
        let cfg = config(4096, 4);
        let results = batch_sweep(&all_policies(cfg), &addrs);
        let alone = |policy| batch_sweep(&[SweepPoint::new(cfg, policy)], &addrs)[0];
        assert_eq!(results[0], alone(SweepPolicy::DirectMapped));
        assert_eq!(results[1], alone(SweepPolicy::DynamicExclusion));
        assert!(results[1].1.is_some());
        assert_eq!(results[2], alone(SweepPolicy::Optimal));
    }

    #[test]
    fn empty_cases_are_well_defined() {
        let addrs = random_addrs(1, 100, 64);
        assert!(batch_sweep(&[], &addrs).is_empty());
        let results = batch_sweep(&all_policies(config(64, 4)), &[]);
        for (stats, _) in &results {
            assert_eq!(stats.accesses(), 0);
            assert_eq!(stats.misses(), 0);
        }
    }

    #[test]
    fn trace_shorter_than_one_chunk_matches() {
        let addrs = random_addrs(2, CHUNK_LEN / 3, 256);
        assert_matches_single(&all_policies(config(256, 4)), &addrs);
    }

    #[test]
    fn chunk_boundary_straddling_loop_matches() {
        // A tight two-line loop positioned to straddle the chunk boundary:
        // the DE state machine's sticky/hit-last hand-off crosses chunks.
        let mut addrs = vec![0u32; CHUNK_LEN - 3];
        for i in 0..64u32 {
            addrs.push(if i % 2 == 0 { 0 } else { 64 });
        }
        addrs.extend(random_addrs(4, CHUNK_LEN, 128));
        let mut points = all_policies(config(64, 4));
        points.extend(all_policies(config(1024, 16)));
        assert_matches_single(&points, &addrs);
    }

    /// The spec of an EHC or bandwidth-cost point: [`simulate_policy`]
    /// with its policy, traffic counters included.
    fn spec_stats(point: SweepPoint, addrs: &[u32]) -> Option<CacheStats> {
        let config = point.config;
        match point.policy {
            SweepPolicy::ExpectedHitCount => Some(simulate_policy(
                config,
                addrs,
                &mut EhcPolicy::new(config, addrs),
            )),
            SweepPolicy::BandwidthCost => Some(simulate_policy(
                config,
                addrs,
                &mut BwCostPolicy::new(config, addrs),
            )),
            _ => None,
        }
    }

    /// Every point of the probed sweep equals that point swept alone: the
    /// same statistics, DE counters on the DE points only, and the same
    /// event stream (none for the optimal, EHC and bandwidth-cost points).
    /// EHC and bandwidth-cost points also equal [`simulate_policy`], fills,
    /// writebacks and probes included. Returns the sweep's event logs.
    fn assert_replays_alone(points: &[SweepPoint], addrs: &[u32], what: &str) -> Vec<EventLog> {
        let mut probes: Vec<EventLog> = points.iter().map(|_| EventLog::new()).collect();
        let results = batch_sweep_probed(points, addrs, &mut probes);
        assert_eq!(results, batch_sweep(points, addrs), "{what}");
        for ((point, result), log) in points.iter().zip(&results).zip(&probes) {
            let what = format!("{what}: {:?} @ {}", point.policy, point.config);
            let mut alone = [EventLog::new()];
            let expected = batch_sweep_probed(&[*point], addrs, &mut alone)[0];
            assert_eq!(*result, expected, "{what}");
            assert_eq!(log.events(), alone[0].events(), "{what}");
            assert_eq!(result.1.is_some(), point.policy.is_de(), "{what}");
            let spec = spec_stats(*point, addrs);
            if let Some(spec) = spec {
                assert_eq!(result.0, spec, "{what}: simulate_policy");
                assert_eq!(result.0.probes(), addrs.len() as u64, "{what}");
            }
            if point.policy.is_optimal() || spec.is_some() {
                assert!(log.events().is_empty(), "{what}: emits no events");
            }
        }
        probes
    }

    /// A seeded plan of 1 to 8 points: 64 B to 4 KB caches with 4 to 32 B
    /// lines under any of the seven policies. The geometry space is small,
    /// so plans repeat points now and then.
    fn random_plan(rng: &mut SplitMix64) -> Vec<SweepPoint> {
        const POLICIES: [SweepPolicy; 7] = [
            SweepPolicy::DirectMapped,
            SweepPolicy::DynamicExclusion,
            SweepPolicy::Optimal,
            SweepPolicy::DeLastLine,
            SweepPolicy::OptimalLastLine,
            SweepPolicy::ExpectedHitCount,
            SweepPolicy::BandwidthCost,
        ];
        (0..=rng.below(8))
            .map(|_| {
                let size = 64 << rng.below(7);
                let line = 4 << rng.below(4);
                let policy = POLICIES[rng.below_usize(POLICIES.len())];
                SweepPoint::new(config(size, line), policy)
            })
            .collect()
    }

    #[test]
    fn probed_sweep_replays_single_kernel_event_streams() {
        let addrs = random_addrs(23, 6_000, 1_024);
        let points = [
            SweepPoint::new(config(256, 4), SweepPolicy::DirectMapped),
            SweepPoint::new(config(1024, 16), SweepPolicy::DynamicExclusion),
            SweepPoint::new(config(256, 4), SweepPolicy::Optimal),
            SweepPoint::new(config(256, 4), SweepPolicy::ExpectedHitCount),
            SweepPoint::new(config(1024, 16), SweepPolicy::BandwidthCost),
        ];
        let logs = assert_replays_alone(&points, &addrs, "fixed plan");
        assert!(logs[..2].iter().all(|log| !log.events().is_empty()));

        // Seeded random plans over short traces, some crossing a chunk
        // boundary.
        let mut plans_with_duplicates = 0;
        for seed in 0..96u64 {
            let mut rng = SplitMix64::new(seed);
            let points = random_plan(&mut rng);
            let len = rng.below_usize(CHUNK_LEN + 500);
            let addrs = random_addrs(rng.next_u64(), len, 2_048);
            assert_replays_alone(&points, &addrs, &format!("seed {seed}"));
            let distinct: std::collections::HashSet<_> = points.iter().collect();
            plans_with_duplicates += (distinct.len() < points.len()) as u32;
        }
        assert!(plans_with_duplicates > 0, "no random plan repeated a point");
    }

    /// Instruction-like fetches: sequential word runs of 1..=12 words from
    /// random starting words, so runs cross 16 B and 64 B line boundaries.
    fn fetch_addrs(seed: u64, len: usize, span: u64) -> Vec<u32> {
        let mut rng = SplitMix64::new(seed);
        let mut addrs = Vec::with_capacity(len);
        while addrs.len() < len {
            let start = rng.below(span) as u32;
            let run = 1 + rng.below(12) as u32;
            addrs.extend(
                (start..start + run)
                    .map(|word| word * 4)
                    .take(len - addrs.len()),
            );
        }
        addrs
    }

    /// The last-line buffer by definition: the references that start a
    /// line run, as the line-aligned addresses the inner cache sees.
    fn run_start_addrs(addrs: &[u32], line_bytes: u32) -> Vec<u32> {
        let offset_bits = line_bytes.trailing_zeros();
        let mut prev = None;
        let mut starts = Vec::new();
        for &addr in addrs {
            let line = addr >> offset_bits;
            if prev != Some(line) {
                starts.push(line << offset_bits);
            }
            prev = Some(line);
        }
        starts
    }

    /// A last-line point equals its plain policy over the run starts alone
    /// (the inner cache's view), with every other reference a hit.
    fn assert_lastline_matches_definition(cfg: CacheConfig, addrs: &[u32]) {
        let starts = run_start_addrs(addrs, cfg.line_bytes());
        let accesses = addrs.len() as u64;
        let results = batch_sweep(
            &[
                SweepPoint::new(cfg, SweepPolicy::DeLastLine),
                SweepPoint::new(cfg, SweepPolicy::OptimalLastLine),
            ],
            addrs,
        );
        let inner = batch_sweep(
            &[
                SweepPoint::new(cfg, SweepPolicy::DynamicExclusion),
                SweepPoint::new(cfg, SweepPolicy::Optimal),
            ],
            &starts,
        );
        let (de, inner_de) = (results[0], inner[0]);
        assert_eq!(de.0.accesses(), accesses, "de-lastline @ {cfg}");
        assert_eq!(de.0.misses(), inner_de.0.misses(), "de-lastline @ {cfg}");
        assert!(de.1.is_some(), "de-lastline @ {cfg}");
        assert_eq!(de.1, inner_de.1, "de-lastline @ {cfg}");
        let (opt, opt_de) = results[1];
        assert!(opt_de.is_none());
        assert_eq!(opt.accesses(), accesses, "opt-lastline @ {cfg}");
        assert_eq!(opt.misses(), inner[1].0.misses(), "opt-lastline @ {cfg}");
    }

    #[test]
    fn lastline_points_match_their_definition_at_4_16_and_64_byte_lines() {
        for (seed, span) in [(31u64, 600u64), (32, 6_000), (33, 60_000)] {
            let addrs = fetch_addrs(seed, 25_000, span);
            for line in [4u32, 16, 64] {
                for size in [256u32, 4096, 32 * 1024] {
                    assert_lastline_matches_definition(config(size, line), &addrs);
                }
            }
        }
    }

    #[test]
    fn lastline_run_straddling_a_chunk_boundary_matches() {
        // One 16 B line repeated across the chunk boundary, then a tight
        // two-line loop of multi-word runs across the next boundary: the
        // buffer's last tag must carry from one chunk into the next.
        let mut addrs = fetch_addrs(34, CHUNK_LEN - 5, 512);
        addrs.extend(std::iter::repeat_n(0x40, 11));
        while addrs.len() < 2 * CHUNK_LEN + 40 {
            for base in [0x1000u32, 0x1400] {
                addrs.extend((0..6).map(|w| base + w * 4));
            }
        }
        addrs.extend(fetch_addrs(35, CHUNK_LEN / 2, 512));
        for line in [4u32, 16, 64] {
            assert_lastline_matches_definition(config(1024, line), &addrs);
        }
        let mut points = Vec::new();
        for line in [4u32, 16, 64] {
            points.push(SweepPoint::new(config(1024, line), SweepPolicy::DeLastLine));
            points.push(SweepPoint::new(
                config(1024, line),
                SweepPolicy::OptimalLastLine,
            ));
        }
        assert_matches_single(&points, &addrs);
    }

    #[test]
    fn mixed_line_sizes_and_policies_share_one_sweep() {
        // Last-line points beside plain ones, at interleaved line sizes:
        // every point equals that point swept alone.
        let addrs = fetch_addrs(36, 3 * CHUNK_LEN + 123, 8_192);
        let mut points = Vec::new();
        for (size, line) in [(1024u32, 16u32), (4096, 4), (8192, 64), (32 * 1024, 16)] {
            points.extend(all_policies(config(size, line)));
            points.push(SweepPoint::new(config(size, line), SweepPolicy::DeLastLine));
            points.push(SweepPoint::new(
                config(size, line),
                SweepPolicy::OptimalLastLine,
            ));
        }
        assert_matches_single(&points, &addrs);
        for point in &points {
            assert_lastline_matches_definition(point.config, &addrs);
        }
    }

    #[test]
    fn lastline_probe_stream_interleaves_buffer_hits_with_the_inner_cache() {
        let addrs = fetch_addrs(37, 2 * CHUNK_LEN + 77, 2_048);
        for line in [4u32, 16, 64] {
            let cfg = config(512, line);
            let mut probes = [EventLog::new(), EventLog::new()];
            let points = [
                SweepPoint::new(cfg, SweepPolicy::DeLastLine),
                SweepPoint::new(cfg, SweepPolicy::OptimalLastLine),
            ];
            batch_sweep_probed(&points, &addrs, &mut probes);
            let [de_log, opt_log] = probes;
            assert!(opt_log.events().is_empty(), "optimal emits no events");

            // Expected: the plain DE stream over the run starts, with a
            // buffer hit for every reference inside a run.
            let starts = run_start_addrs(&addrs, line);
            let mut inner = [EventLog::new()];
            batch_sweep_probed(
                &[SweepPoint::new(cfg, SweepPolicy::DynamicExclusion)],
                &starts,
                &mut inner,
            );
            let [inner] = inner;
            let mut inner = inner.into_events().into_iter();
            let mut expected = Vec::new();
            let mut prev = None;
            for &addr in &addrs {
                let line_addr = addr >> cfg.geometry().offset_bits();
                if prev == Some(line_addr) {
                    expected.push(Event::Access {
                        addr,
                        set: line_addr & (cfg.n_sets() - 1),
                        outcome: Outcome::Hit,
                        cause: Cause::LineBuffer,
                    });
                } else {
                    for event in inner.by_ref() {
                        let done = matches!(event, Event::Access { .. });
                        expected.push(event);
                        if done {
                            break;
                        }
                    }
                }
                prev = Some(line_addr);
            }
            assert!(inner.next().is_none());
            let buffered = expected
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        Event::Access {
                            cause: Cause::LineBuffer,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(buffered, addrs.len() - starts.len(), "{line} B lines");
            assert_eq!(de_log.events(), expected.as_slice(), "{line} B lines");
        }
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn sweep_rejects_associative_config() {
        let cfg = CacheConfig::new(64, 4, 2).unwrap();
        batch_sweep(&[SweepPoint::new(cfg, SweepPolicy::DirectMapped)], &[0]);
    }
}
