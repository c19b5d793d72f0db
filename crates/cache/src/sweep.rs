//! The fast dm/de/opt kernel behind `--kernel batch` and `--kernel sweep`
//! (two names for this one code path).
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
//! * **one next-use oracle per line size** — the optimal policy's
//!   reverse-scan chain likewise depends only on the line size, so a 16-size
//!   sweep at one line size builds it once and shares it 16 ways (plain and
//!   last-line optimal points alike).
//! * **last-line runs per line size** — the Section 6 last-line buffer
//!   serves every reference that repeats the line before it, so a run
//!   boundary (`line[i] != line[i-1]`) depends only on the line size. Each
//!   chunk's run starts are listed once per line size that has a
//!   last-line DE point; the DE FSM steps only at those positions, and
//!   every other reference is a buffer hit. A last-line optimal point
//!   decides once per run, at the run's last position, whose next use is
//!   the start of that line's next run.
//! * **flat per-point state** — each point owns flat tag / sticky /
//!   hit-last-copy vectors, and each dynamic-exclusion point its own
//!   hit-last bitmap over its line size's footprint (prescanned only for
//!   line sizes that have a DE point).
//! * **one hit-last allocation** — the DE bitmaps are disjoint views of
//!   one zeroed allocation. A bitmap spans the trace's whole line range
//!   (megabytes when a stack sits near the top of memory), yet only the
//!   words of displaced lines are written: one large zeroed allocation
//!   arrives as fresh pages that stay untouched until then, while separate
//!   mid-size ones may come from recycled heap the allocator must clear,
//!   making them resident in full (a bitmap per point tripled the peak RSS
//!   of a two-worker figure pass).
//! * **table-driven FSM** — every DE point steps through the same
//!   precomputed eight-row [`DE_FSM_TABLE`](crate::DE_FSM_TABLE); the inner
//!   loops carry no per-reference branches beyond the table row itself.
//! * **chunk-boundary merges** — per-point hit/miss tallies accumulate in
//!   registers inside a chunk and merge into the per-point totals only at
//!   chunk boundaries, where the observability spans open.
//!
//! Every point is **bit-identical** to the reference simulator of its
//! policy ([`crate::DirectMapped`], and `DeCache` / `LastLineDeCache` /
//! `OptimalDirectMapped` in `dynex-core`): same statistics, same load/bypass
//! split, and — through
//! [`batch_sweep_probed`] — the same probe event stream in the same order.
//! Points share no state, so each one also equals that point swept alone.
//! `tests/kernel_differential.rs` and the property suite
//! `crates/cache/tests/prop_sweep_lockstep.rs` enforce this.

use dynex_obs::span;
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::batch::CHUNK_LEN;
use crate::direct::INVALID_LINE;
use crate::kernel::{
    de_fsm_index, decode_chunk, hit_last_bit, hit_last_words, max_line, next_use, set_hit_last_bit,
    BatchDeResult, DeFsmRow, DE_FSM_TABLE, NEVER,
};
use crate::{CacheConfig, CacheStats};

/// The replacement/bypass policy of one sweep point.
///
/// These are the three policies the paper's figures compare, and the
/// Section 6 last-line variants of DE and OPT that Figures 11 and 12 use
/// for multi-word lines.
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
}

impl SweepPolicy {
    /// Stable lowercase name, matching the engine's policy names.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::DirectMapped => "dm",
            SweepPolicy::DynamicExclusion => "de",
            SweepPolicy::Optimal => "opt",
            SweepPolicy::DeLastLine => "de-lastline",
            SweepPolicy::OptimalLastLine => "opt-lastline",
        }
    }

    /// Runs the DE state machine (and so owns a hit-last bitmap).
    fn is_de(self) -> bool {
        matches!(
            self,
            SweepPolicy::DynamicExclusion | SweepPolicy::DeLastLine
        )
    }

    /// Reads the next-use oracle of its line size.
    fn is_optimal(self) -> bool {
        matches!(self, SweepPolicy::Optimal | SweepPolicy::OptimalLastLine)
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
/// let stats = batch_sweep(&[point], &[0, 0, 64, 0])[0].stats();
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

/// Per-point output of [`batch_sweep`].
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
/// assert_eq!(results[0].stats().misses(), 20); // DM thrashes
/// assert_eq!(results[1].stats().misses(), 11);
/// assert_eq!(results[1].de().unwrap().bypasses, 10);
/// assert_eq!(results[2].stats().misses(), 11);
/// assert!(results[0].de().is_none());
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPointResult {
    /// Conventional direct-mapped statistics.
    Dm(CacheStats),
    /// Dynamic-exclusion statistics with the load/bypass split (a
    /// last-line point counts one load or bypass per line run).
    De(BatchDeResult),
    /// Optimal direct-mapped statistics, with or without the last-line
    /// buffer.
    Opt(CacheStats),
}

impl SweepPointResult {
    /// The hit/miss statistics, whatever the policy.
    pub fn stats(&self) -> CacheStats {
        match *self {
            SweepPointResult::Dm(stats) | SweepPointResult::Opt(stats) => stats,
            SweepPointResult::De(de) => de.stats,
        }
    }

    /// The dynamic-exclusion counters, if this point ran a DE policy.
    pub fn de(&self) -> Option<BatchDeResult> {
        match *self {
            SweepPointResult::De(de) => Some(de),
            _ => None,
        }
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

/// Per-set state of one dynamic-exclusion sweep point, with its own
/// hit-last bitmap for the blocks that are not resident (a view of the
/// sweep's one hit-last allocation).
struct DeSweep<'a> {
    lines: Vec<u32>,
    sticky: Vec<bool>,
    h_copy: Vec<bool>,
    hit_last: &'a mut [u64],
    index_mask: u32,
    misses: u64,
    loads: u64,
}

impl<'a> DeSweep<'a> {
    fn new(n_sets: usize, index_mask: u32, hit_last: &'a mut [u64]) -> DeSweep<'a> {
        DeSweep {
            lines: vec![INVALID_LINE; n_sets],
            sticky: vec![false; n_sets],
            h_copy: vec![false; n_sets],
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
    /// (`installs` is set only for misses that load).
    #[inline(always)]
    fn step<P: Probe>(&mut self, addr: u32, line: u32, probe: &mut P) -> DeFsmRow {
        let set = (line & self.index_mask) as usize;
        let resident = self.lines[set];
        let hit = resident == line;
        let sticky = self.sticky[set];
        let h_pred = hit_last_bit(self.hit_last, line);
        let row = DE_FSM_TABLE[de_fsm_index(hit, sticky, h_pred)];

        if row.is_miss {
            probe.emit(Event::ExclusionDecision {
                set: set as u32,
                line,
                loaded: row.installs,
            });
        }
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
        self.sticky[set] = row.sticky_after;

        let cause = if hit {
            // The resident block's in-line hit-last copy is re-armed.
            self.h_copy[set] = true;
            Cause::Resident
        } else if row.installs {
            let cause = if resident == INVALID_LINE {
                Cause::Cold
            } else {
                // Figure 6 "transfer on replacement": the victim's
                // in-line copy goes back to the bitmap.
                set_hit_last_bit(self.hit_last, resident, self.h_copy[set]);
                probe.emit(Event::Eviction {
                    set: set as u32,
                    victim: resident,
                    replacement: line,
                });
                Cause::Replace
            };
            self.lines[set] = line;
            self.h_copy[set] = row.hit_last_value;
            cause
        } else {
            Cause::Bypass
        };
        probe.emit(Event::Access {
            addr,
            set: set as u32,
            outcome: if row.is_miss {
                Outcome::Miss
            } else {
                Outcome::Hit
            },
            cause,
        });
        row
    }
}

/// Per-set state of one optimal sweep point.
struct OptSweep {
    resident: Vec<u32>,
    resident_next: Vec<u32>,
    index_mask: u32,
    misses: u64,
}

impl OptSweep {
    fn new(n_sets: usize, index_mask: u32) -> OptSweep {
        OptSweep {
            resident: vec![INVALID_LINE; n_sets],
            // An invalid resident is "never used again", so any incoming
            // block wins the greedy comparison.
            resident_next: vec![NEVER; n_sets],
            index_mask,
            misses: 0,
        }
    }

    /// One chunk of the greedy keep-whichever-is-used-sooner rule: the
    /// second pass of the reference `OptimalDirectMapped::simulate`, whose
    /// first pass is the shared next-use oracle. Tallies merge at the chunk
    /// boundary.
    fn run_chunk(&mut self, lines: &[u32], next: &[u32]) {
        let mask = self.index_mask;
        let mut misses = 0u64;
        for (&line, &next) in lines.iter().zip(next) {
            let set = (line & mask) as usize;
            if self.resident[set] == line {
                self.resident_next[set] = next;
            } else {
                misses += 1;
                if next < self.resident_next[set] {
                    self.resident[set] = line;
                    self.resident_next[set] = next;
                }
            }
        }
        self.misses += misses;
    }

    /// One chunk behind the last-line buffer: the greedy rule runs once per
    /// line run, at the run's last position — the one whose next use is
    /// not the very next reference. That next use is the start of the
    /// line's next run, and run index → start position is strictly
    /// increasing, so every comparison matches the reference
    /// `OptimalDirectMapped::simulate_with_lastline` over run indices. The
    /// rest of the run hits the buffer and touches no set state, so
    /// deciding at the run's end instead of its start changes nothing.
    /// `pos` is the chunk's first trace position.
    fn run_chunk_lastline(&mut self, lines: &[u32], next: &[u32], pos: u32) {
        let mask = self.index_mask;
        let mut misses = 0u64;
        for ((&line, &next), at) in lines.iter().zip(next).zip(pos + 1..) {
            if next == at {
                continue;
            }
            let set = (line & mask) as usize;
            if self.resident[set] == line {
                self.resident_next[set] = next;
            } else {
                misses += 1;
                if next < self.resident_next[set] {
                    self.resident[set] = line;
                    self.resident_next[set] = next;
                }
            }
        }
        self.misses += misses;
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
}

/// Carries N cache geometries through a single trace traversal.
///
/// Bit-identical per point to the reference simulator of its policy; what
/// the sweep buys is decoding each chunk once per distinct line size,
/// building each distinct next-use oracle once, and walking the trace once
/// for the whole plan instead of once per point.
///
/// Points may repeat geometries (each keeps fully independent state) and
/// may be a single point, which is how every one-point dm/de/opt
/// simulation in the workspace runs.
///
/// # Panics
///
/// Panics if any point's `config.associativity() != 1`, like the reference
/// simulators.
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
pub fn batch_sweep(points: &[SweepPoint], addrs: &[u32]) -> Vec<SweepPointResult> {
    let mut probes = vec![NoopProbe; points.len()];
    batch_sweep_probed(points, addrs, &mut probes)
}

/// [`batch_sweep`] with per-point event emission: `probes[i]` receives
/// exactly the events the reference simulator would emit for `points[i]`,
/// in the same order (the optimal policy emits none, as in the reference
/// path).
///
/// # Panics
///
/// Panics if `probes.len() != points.len()` or any point's associativity is
/// not 1.
pub fn batch_sweep_probed<P: Probe>(
    points: &[SweepPoint],
    addrs: &[u32],
    probes: &mut [P],
) -> Vec<SweepPointResult> {
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
    // share one decode and (for optimal points) one next-use oracle.
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

    // Whole-trace work per line size, done only where a point needs it: the
    // footprint prescan that sizes the DE bitmaps, the next-use oracle of
    // the optimal points, and the run starts of the last-line DE points.
    let mut max_by: Vec<Option<u32>> = vec![None; offsets.len()];
    let mut next_by: Vec<Option<Vec<u32>>> = vec![None; offsets.len()];
    let mut runs_by: Vec<Option<RunStarts>> = vec![None; offsets.len()];
    for (point, &oi) in points.iter().zip(&offset_of) {
        if point.policy.is_de() && max_by[oi].is_none() {
            let _decode = span::span("kernel.decode");
            max_by[oi] = Some(max_line(addrs, offsets[oi]));
        }
        if point.policy.is_optimal() && next_by[oi].is_none() {
            let _next_use = span::span("kernel.next-use");
            next_by[oi] = Some(next_use(addrs, offsets[oi]));
        }
        if point.policy == SweepPolicy::DeLastLine && runs_by[oi].is_none() {
            runs_by[oi] = Some(RunStarts::new());
        }
    }

    // One zeroed allocation holds every DE point's bitmap (see the module
    // docs); each point takes the next disjoint slice of it.
    let words_of = |oi: usize| {
        hit_last_words(max_by[oi].expect("footprint prescanned for every DE line size"))
    };
    let slab_words = points
        .iter()
        .zip(&offset_of)
        .filter(|(point, _)| point.policy.is_de())
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
            let mut de = || {
                let (hit_last, rest) = std::mem::take(&mut unclaimed).split_at_mut(words_of(oi));
                unclaimed = rest;
                DeSweep::new(n_sets, index_mask, hit_last)
            };
            match point.policy {
                SweepPolicy::DirectMapped => PointState::Dm(DmSweep::new(n_sets, index_mask)),
                SweepPolicy::DynamicExclusion => PointState::De(de()),
                SweepPolicy::Optimal => PointState::Opt(OptSweep::new(n_sets, index_mask)),
                SweepPolicy::DeLastLine => PointState::DeLastLine(de()),
                SweepPolicy::OptimalLastLine => {
                    PointState::OptLastLine(OptSweep::new(n_sets, index_mask))
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
        let _simulate = span::span("kernel.simulate");
        for ((point_state, &oi), probe) in state.iter_mut().zip(&offset_of).zip(probes.iter_mut()) {
            let lines = &line_bufs[oi][..chunk.len()];
            let next = || {
                let next = next_by[oi]
                    .as_deref()
                    .expect("next-use oracle built for every optimal line size");
                &next[pos..pos + chunk.len()]
            };
            match point_state {
                PointState::Dm(dm) => dm.run_chunk(chunk, lines, probe),
                PointState::De(de) => de.run_chunk(chunk, lines, probe),
                PointState::Opt(opt) => opt.run_chunk(lines, next()),
                PointState::DeLastLine(de) => {
                    let runs = runs_by[oi]
                        .as_ref()
                        .expect("run starts listed for every last-line DE line size");
                    de.run_chunk_lastline(chunk, lines, &runs.starts, offsets[oi], probe);
                }
                PointState::OptLastLine(opt) => opt.run_chunk_lastline(lines, next(), pos as u32),
            }
        }
    }

    let accesses = addrs.len() as u64;
    state
        .into_iter()
        .map(|point_state| match point_state {
            PointState::Dm(dm) => {
                SweepPointResult::Dm(CacheStats::from_counts(accesses, dm.misses))
            }
            PointState::De(de) | PointState::DeLastLine(de) => {
                SweepPointResult::De(BatchDeResult {
                    stats: CacheStats::from_counts(accesses, de.misses),
                    loads: de.loads,
                    bypasses: de.misses - de.loads,
                })
            }
            PointState::Opt(opt) | PointState::OptLastLine(opt) => {
                SweepPointResult::Opt(CacheStats::from_counts(accesses, opt.misses))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;
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
                "{} @ {}",
                point.policy.name(),
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
        assert_eq!(results[0].stats(), alone(SweepPolicy::DirectMapped).stats());
        assert_eq!(
            results[1].de().unwrap(),
            alone(SweepPolicy::DynamicExclusion).de().unwrap()
        );
        assert_eq!(results[2].stats(), alone(SweepPolicy::Optimal).stats());
    }

    #[test]
    fn empty_cases_are_well_defined() {
        let addrs = random_addrs(1, 100, 64);
        assert!(batch_sweep(&[], &addrs).is_empty());
        let results = batch_sweep(&all_policies(config(64, 4)), &[]);
        for result in &results {
            assert_eq!(result.stats().accesses(), 0);
            assert_eq!(result.stats().misses(), 0);
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

    #[test]
    fn probed_sweep_replays_single_kernel_event_streams() {
        let addrs = random_addrs(23, 6_000, 1_024);
        let points = [
            SweepPoint::new(config(256, 4), SweepPolicy::DirectMapped),
            SweepPoint::new(config(1024, 16), SweepPolicy::DynamicExclusion),
            SweepPoint::new(config(256, 4), SweepPolicy::Optimal),
        ];
        let mut probes = [EventLog::new(), EventLog::new(), EventLog::new()];
        let results = batch_sweep_probed(&points, &addrs, &mut probes);

        for (i, point) in points.iter().enumerate().take(2) {
            let mut log = [EventLog::new()];
            let alone = batch_sweep_probed(&[*point], &addrs, &mut log);
            assert_eq!(results[i], alone[0]);
            assert_eq!(probes[i].events(), log[0].events());
            assert!(!log[0].events().is_empty());
        }
        assert!(results[1].de().is_some());

        assert!(probes[2].events().is_empty(), "optimal emits no events");
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
        let (de, inner_de) = (results[0].de().unwrap(), inner[0].de().unwrap());
        assert_eq!(de.stats.accesses(), accesses, "de-lastline @ {cfg}");
        assert_eq!(
            de.stats.misses(),
            inner_de.stats.misses(),
            "de-lastline @ {cfg}"
        );
        assert_eq!(de.loads, inner_de.loads, "de-lastline @ {cfg}");
        assert_eq!(de.bypasses, inner_de.bypasses, "de-lastline @ {cfg}");
        let opt = results[1].stats();
        assert!(results[1].de().is_none());
        assert_eq!(opt.accesses(), accesses, "opt-lastline @ {cfg}");
        assert_eq!(
            opt.misses(),
            inner[1].stats().misses(),
            "opt-lastline @ {cfg}"
        );
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
