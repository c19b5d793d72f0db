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
//!   sweep at one line size builds it once and shares it 16 ways.
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
//! policy ([`crate::DirectMapped`], and `DeCache` / `OptimalDirectMapped` in
//! `dynex-core`): same statistics, same load/bypass split, and — through
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
    BatchDeResult, DE_FSM_TABLE, NEVER,
};
use crate::{CacheConfig, CacheStats};

/// The replacement/bypass policy of one sweep point.
///
/// These are the three policies the paper's figures compare; the last-line
/// variants keep global state across sets and stay on the reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPolicy {
    /// Conventional direct-mapped (the paper's baseline).
    DirectMapped,
    /// Dynamic exclusion with a perfect hit-last store.
    DynamicExclusion,
    /// The future-knowing optimal direct-mapped cache with bypass.
    Optimal,
}

impl SweepPolicy {
    /// Stable lowercase name, matching the engine's policy names.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::DirectMapped => "dm",
            SweepPolicy::DynamicExclusion => "de",
            SweepPolicy::Optimal => "opt",
        }
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
    /// Dynamic-exclusion statistics with the load/bypass split.
    De(BatchDeResult),
    /// Optimal direct-mapped statistics.
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

    /// The dynamic-exclusion counters, if this point ran the DE policy.
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
        let mask = self.index_mask;
        let mut misses = 0u64;
        let mut loads = 0u64;
        for (&addr, &line) in addrs.iter().zip(lines) {
            let set = (line & mask) as usize;
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
            misses += row.is_miss as u64;

            let cause = if hit {
                // The resident block's in-line hit-last copy is re-armed.
                self.h_copy[set] = true;
                Cause::Resident
            } else if row.installs {
                loads += 1;
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
        }
        self.misses += misses;
        self.loads += loads;
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
}

enum PointState<'a> {
    Dm(DmSweep),
    De(DeSweep<'a>),
    Opt(OptSweep),
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
    // footprint prescan that sizes the DE bitmaps, and the next-use oracle of
    // the optimal points.
    let mut max_by: Vec<Option<u32>> = vec![None; offsets.len()];
    let mut next_by: Vec<Option<Vec<u32>>> = vec![None; offsets.len()];
    for (point, &oi) in points.iter().zip(&offset_of) {
        match point.policy {
            SweepPolicy::DynamicExclusion if max_by[oi].is_none() => {
                let _decode = span::span("kernel.decode");
                max_by[oi] = Some(max_line(addrs, offsets[oi]));
            }
            SweepPolicy::Optimal if next_by[oi].is_none() => {
                let _next_use = span::span("kernel.next-use");
                next_by[oi] = Some(next_use(addrs, offsets[oi]));
            }
            _ => {}
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
        .filter(|(point, _)| point.policy == SweepPolicy::DynamicExclusion)
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
            match point.policy {
                SweepPolicy::DirectMapped => PointState::Dm(DmSweep::new(n_sets, index_mask)),
                SweepPolicy::DynamicExclusion => {
                    let (hit_last, rest) =
                        std::mem::take(&mut unclaimed).split_at_mut(words_of(oi));
                    unclaimed = rest;
                    PointState::De(DeSweep::new(n_sets, index_mask, hit_last))
                }
                SweepPolicy::Optimal => PointState::Opt(OptSweep::new(n_sets, index_mask)),
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
        }
        let _simulate = span::span("kernel.simulate");
        for ((point_state, &oi), probe) in state.iter_mut().zip(&offset_of).zip(probes.iter_mut()) {
            let lines = &line_bufs[oi][..chunk.len()];
            match point_state {
                PointState::Dm(dm) => dm.run_chunk(chunk, lines, probe),
                PointState::De(de) => de.run_chunk(chunk, lines, probe),
                PointState::Opt(opt) => {
                    let next = next_by[oi]
                        .as_deref()
                        .expect("next-use oracle built for every optimal line size");
                    opt.run_chunk(lines, &next[pos..pos + chunk.len()]);
                }
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
            PointState::De(de) => SweepPointResult::De(BatchDeResult {
                stats: CacheStats::from_counts(accesses, de.misses),
                loads: de.loads,
                bypasses: de.misses - de.loads,
            }),
            PointState::Opt(opt) => {
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

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn sweep_rejects_associative_config() {
        let cfg = CacheConfig::new(64, 4, 2).unwrap();
        batch_sweep(&[SweepPoint::new(cfg, SweepPolicy::DirectMapped)], &[0]);
    }
}
