//! One-pass multi-configuration sweep kernel: the fast path behind
//! `--kernel sweep`.
//!
//! Every figure in the paper replays *one* trace across *many* (size, line,
//! policy) points. [`crate::kernel::batch_triple`] fused the three policies
//! of a single geometry into one traversal; [`batch_sweep`] goes the rest of
//! the way and carries N arbitrary geometries through a single pass:
//!
//! * **one decode per geometry** — the byte-address stream is decoded into a
//!   line-address stream once per *distinct* line size (`line = addr >>
//!   offset_bits` depends only on `offset_bits`), not once per point, via the
//!   same chunked decode the batch kernels use.
//! * **one next-use oracle per geometry** — the optimal policy's
//!   reverse-scan chain likewise depends only on the line size, so a 16-size
//!   sweep at one line size builds it once and shares it 16 ways.
//! * **struct-of-arrays point state** — each point owns flat tag / sticky /
//!   hit-last-copy vectors ([`DmSweep`]-style per-set arrays, matching the
//!   batch kernels' layout), kept in a single `Vec` indexed by point so the
//!   chunk loop walks them contiguously.
//! * **one hit-last slab** — the dynamic-exclusion points' hit-last bitmaps
//!   are carved, as disjoint per-point views, out of a single `Vec<u64>`
//!   allocation sized once from the trace prescan (see [`slab
//!   views`](#hit-last-slab)).
//! * **table-driven FSM across configs** — within a chunk every DE point
//!   steps through the same precomputed eight-row
//!   [`DE_FSM_TABLE`](crate::DE_FSM_TABLE); the inner loops carry no
//!   per-reference branches beyond the table row itself.
//! * **chunk-boundary merges** — per-point hit/miss tallies accumulate in
//!   registers inside a chunk and merge into the per-point totals only at
//!   chunk boundaries, exactly where the batch kernels open their
//!   observability spans.
//!
//! The kernel is **bit-identical** per point to the corresponding
//! single-point kernel ([`crate::batch_dm`] / [`crate::batch_de`] /
//! [`crate::batch_opt`]) and therefore to the reference simulators: same
//! statistics, same load/bypass split, and — through
//! [`batch_sweep_probed`] — the same per-point probe event stream in the
//! same order. `tests/kernel_differential.rs` and the property suite
//! `crates/cache/tests/prop_sweep_lockstep.rs` enforce this.
//!
//! # Hit-last slab
//!
//! Each DE point needs a hit-last bit per line address its geometry can
//! produce from the trace. Rather than one allocation per point, the sweep
//! sizes a single `u64` slab at setup (sum over DE points of each point's
//! prescan footprint, the largest geometry dominating) and hands every point
//! a disjoint word range. Views never overlap — two points with identical
//! geometry still get separate ranges, because their FSMs diverge the moment
//! their set counts differ and must never share exclusion state.

use dynex_obs::span;
use dynex_obs::{Cause, Event, NoopProbe, Outcome, Probe};

use crate::batch::{ChunkedDecoder, KindFilter, CHUNK_LEN};
use crate::direct::INVALID_LINE;
use crate::kernel::{de_fsm_index, decode_chunk, next_use, BatchDeResult, DE_FSM_TABLE, NEVER};
use crate::{CacheConfig, CacheStats};
use dynex_trace::PackedAccess;

/// The replacement/bypass policy of one sweep point.
///
/// These are the three policies the paper's figures compare and the batch
/// kernels specialize; the last-line variants keep global state across sets
/// and stay on the reference path (as with `--kernel batch`).
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

/// Per-point output of [`batch_sweep`], carrying exactly what the
/// corresponding single-point kernel returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPointResult {
    /// Conventional direct-mapped statistics ([`crate::batch_dm`]).
    Dm(CacheStats),
    /// Dynamic-exclusion statistics with the load/bypass split
    /// ([`crate::batch_de`]).
    De(BatchDeResult),
    /// Optimal direct-mapped statistics ([`crate::batch_opt`]).
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
    /// the events of [`crate::batch_dm_probed`]. The miss tally lives in a
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

/// Per-set state of one dynamic-exclusion sweep point. The hit-last bitmap
/// is a view into the shared slab starting at `slab_off` words.
struct DeSweep {
    lines: Vec<u32>,
    sticky: Vec<bool>,
    h_copy: Vec<bool>,
    index_mask: u32,
    slab_off: usize,
    misses: u64,
    loads: u64,
}

impl DeSweep {
    fn new(n_sets: usize, index_mask: u32, slab_off: usize) -> DeSweep {
        DeSweep {
            lines: vec![INVALID_LINE; n_sets],
            sticky: vec![false; n_sets],
            h_copy: vec![false; n_sets],
            index_mask,
            slab_off,
            misses: 0,
            loads: 0,
        }
    }

    /// One chunk of dynamic-exclusion accesses through the precomputed
    /// table, emitting exactly the events (and in the order) of
    /// [`crate::batch_de_probed`]. Tallies merge at the chunk boundary.
    fn run_chunk<P: Probe>(
        &mut self,
        addrs: &[u32],
        lines: &[u32],
        slab: &mut [u64],
        probe: &mut P,
    ) {
        let mask = self.index_mask;
        let base = self.slab_off;
        let mut misses = 0u64;
        let mut loads = 0u64;
        for (&addr, &line) in addrs.iter().zip(lines) {
            let set = (line & mask) as usize;
            let resident = self.lines[set];
            let hit = resident == line;
            let sticky = self.sticky[set];
            let h_pred = (slab[base + (line as usize >> 6)] >> (line & 63)) & 1 == 1;
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
                    // in-line copy goes back to this point's slab view.
                    let word = &mut slab[base + (resident as usize >> 6)];
                    let bit = resident & 63;
                    *word = (*word & !(1u64 << bit)) | ((self.h_copy[set] as u64) << bit);
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
            resident_next: vec![NEVER; n_sets],
            index_mask,
            misses: 0,
        }
    }

    /// One chunk of greedy keep-whichever-is-used-sooner accesses, identical
    /// to [`crate::batch_opt`]'s second pass. Tallies merge at the chunk
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

enum PointState {
    Dm(DmSweep),
    De(DeSweep),
    Opt(OptSweep),
}

/// Carries N cache geometries through a single trace traversal.
///
/// Bit-identical per point to running the corresponding single-point batch
/// kernel (and therefore the reference simulator) over the same stream; what
/// the sweep buys is decoding each distinct line size once, building each
/// distinct next-use oracle once, and walking the trace once for the whole
/// plan instead of once per point.
///
/// Points may repeat geometries (each keeps fully independent state) and may
/// be a degenerate single-point vector, in which case the output equals the
/// single kernel's exactly.
///
/// # Panics
///
/// Panics if any point's `config.associativity() != 1`, like the single
/// kernels.
///
/// # Examples
///
/// ```
/// use dynex_cache::{batch_dm, batch_sweep, CacheConfig, SweepPoint, SweepPolicy};
///
/// let small = CacheConfig::direct_mapped(64, 4)?;
/// let large = CacheConfig::direct_mapped(256, 4)?;
/// let addrs: Vec<u32> = (0..100).map(|i| (i % 40) * 4).collect();
/// let points = [
///     SweepPoint::new(small, SweepPolicy::DirectMapped),
///     SweepPoint::new(large, SweepPolicy::DirectMapped),
/// ];
/// let results = batch_sweep(&points, &addrs);
/// assert_eq!(results[0].stats(), batch_dm(small, &addrs));
/// assert_eq!(results[1].stats(), batch_dm(large, &addrs));
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
pub fn batch_sweep(points: &[SweepPoint], addrs: &[u32]) -> Vec<SweepPointResult> {
    let mut probes = vec![NoopProbe; points.len()];
    batch_sweep_probed(points, addrs, &mut probes)
}

/// [`batch_sweep`] over a packed trace: one [`ChunkedDecoder`] pass feeds
/// every point in the plan.
pub fn batch_sweep_packed(
    points: &[SweepPoint],
    packed: &[PackedAccess],
    filter: KindFilter,
) -> Vec<SweepPointResult> {
    let mut addrs = Vec::with_capacity(if filter == KindFilter::All {
        packed.len()
    } else {
        0
    });
    let mut decoder = ChunkedDecoder::new(packed, filter);
    while let Some(chunk) = decoder.next_chunk() {
        addrs.extend_from_slice(chunk);
    }
    batch_sweep(points, &addrs)
}

/// [`batch_sweep`] with per-point event emission: `probes[i]` receives
/// exactly the events the single-point probed kernel would emit for
/// `points[i]`, in the same order (the optimal policy emits none, as in the
/// reference path).
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

    // Shared decode: one chunked pass materializes every distinct line
    // stream and the footprint that sizes each DE slab view.
    let mut lines_by: Vec<Vec<u32>> = offsets
        .iter()
        .map(|_| Vec::with_capacity(addrs.len()))
        .collect();
    let mut max_by: Vec<u32> = vec![0; offsets.len()];
    let mut line_buf = [0u32; CHUNK_LEN];
    for chunk in addrs.chunks(CHUNK_LEN) {
        let _decode = span::span("kernel.decode");
        for (oi, &offset_bits) in offsets.iter().enumerate() {
            decode_chunk(chunk, offset_bits, &mut line_buf);
            for &line in &line_buf[..chunk.len()] {
                max_by[oi] = max_by[oi].max(line);
            }
            lines_by[oi].extend_from_slice(&line_buf[..chunk.len()]);
        }
    }

    // One next-use oracle per geometry that has an optimal point.
    let mut next_by: Vec<Option<Vec<u32>>> = vec![None; offsets.len()];
    for (point, &oi) in points.iter().zip(&offset_of) {
        if point.policy == SweepPolicy::Optimal && next_by[oi].is_none() {
            let _next_use = span::span("kernel.next-use");
            next_by[oi] = Some(next_use(addrs, offsets[oi]));
        }
    }

    // Carve the shared hit-last slab: each DE point gets a disjoint word
    // range sized by its geometry's trace footprint.
    let mut slab_words = 0usize;
    let mut state: Vec<PointState> = points
        .iter()
        .zip(&offset_of)
        .map(|(point, &oi)| {
            let n_sets = point.config.n_sets() as usize;
            let index_mask = (1u32 << point.config.geometry().index_bits()) - 1;
            match point.policy {
                SweepPolicy::DirectMapped => PointState::Dm(DmSweep::new(n_sets, index_mask)),
                SweepPolicy::DynamicExclusion => {
                    let off = slab_words;
                    slab_words += (max_by[oi] as usize >> 6) + 1;
                    PointState::De(DeSweep::new(n_sets, index_mask, off))
                }
                SweepPolicy::Optimal => PointState::Opt(OptSweep::new(n_sets, index_mask)),
            }
        })
        .collect();
    let mut slab = vec![0u64; slab_words];

    // The one-pass walk: every point consumes the same chunk window before
    // the window advances, so each point's per-set state is touched in the
    // same order as its single-point run while the window stays in cache.
    let total = addrs.len();
    let mut pos = 0usize;
    while pos < total {
        let len = CHUNK_LEN.min(total - pos);
        let _simulate = span::span("kernel.simulate");
        let addr_chunk = &addrs[pos..pos + len];
        for (i, point_state) in state.iter_mut().enumerate() {
            let lines = &lines_by[offset_of[i]][pos..pos + len];
            match point_state {
                PointState::Dm(dm) => dm.run_chunk(addr_chunk, lines, &mut probes[i]),
                PointState::De(de) => de.run_chunk(addr_chunk, lines, &mut slab, &mut probes[i]),
                PointState::Opt(opt) => {
                    let next = next_by[offset_of[i]]
                        .as_ref()
                        .expect("next-use oracle built for every optimal geometry");
                    opt.run_chunk(lines, &next[pos..pos + len]);
                }
            }
        }
        pos += len;
    }

    let accesses = total as u64;
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
    use crate::{batch_de, batch_dm, batch_opt, batch_triple, SplitMix64};
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

    fn assert_matches_single(points: &[SweepPoint], addrs: &[u32]) {
        let results = batch_sweep(points, addrs);
        assert_eq!(results.len(), points.len());
        for (point, result) in points.iter().zip(&results) {
            match point.policy {
                SweepPolicy::DirectMapped => {
                    assert_eq!(
                        *result,
                        SweepPointResult::Dm(batch_dm(point.config, addrs)),
                        "dm @ {}",
                        point.config
                    );
                }
                SweepPolicy::DynamicExclusion => {
                    assert_eq!(
                        *result,
                        SweepPointResult::De(batch_de(point.config, addrs)),
                        "de @ {}",
                        point.config
                    );
                }
                SweepPolicy::Optimal => {
                    assert_eq!(
                        *result,
                        SweepPointResult::Opt(batch_opt(point.config, addrs)),
                        "opt @ {}",
                        point.config
                    );
                }
            }
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
        let addrs = random_addrs(17, 20_000, 8_192);
        let cfg = config(4096, 4);
        let results = batch_sweep(&all_policies(cfg), &addrs);
        let fused = batch_triple(cfg, &addrs);
        assert_eq!(results[0].stats(), fused.dm);
        assert_eq!(results[1].de().unwrap(), fused.de);
        assert_eq!(results[2].stats(), fused.opt);
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

        let mut dm_log = EventLog::new();
        let dm = crate::batch_dm_probed(points[0].config, &addrs, &mut dm_log);
        assert_eq!(results[0], SweepPointResult::Dm(dm));
        assert_eq!(probes[0].events(), dm_log.events());

        let mut de_log = EventLog::new();
        let de = crate::batch_de_probed(points[1].config, &addrs, &mut de_log);
        assert_eq!(results[1], SweepPointResult::De(de));
        assert_eq!(probes[1].events(), de_log.events());

        assert!(probes[2].events().is_empty(), "optimal emits no events");
    }

    #[test]
    fn packed_sweep_decodes_once_for_every_point() {
        use dynex_trace::Access;
        let accesses: Vec<PackedAccess> = (0..2_000)
            .map(|i| {
                let addr = (i as u32 % 700) * 4;
                PackedAccess::pack(if i % 3 == 0 {
                    Access::fetch(addr)
                } else {
                    Access::read(addr)
                })
            })
            .collect();
        let points = all_policies(config(256, 4));
        for filter in [KindFilter::All, KindFilter::Instructions, KindFilter::Data] {
            let addrs = crate::decode_addrs(&accesses, filter);
            assert_eq!(
                batch_sweep_packed(&points, &accesses, filter),
                batch_sweep(&points, &addrs),
                "{filter:?}"
            );
        }
    }

    #[test]
    fn all_filtered_trace_yields_zero_stats_for_every_point() {
        use dynex_trace::Access;
        let accesses: Vec<PackedAccess> = (0..500)
            .map(|i| PackedAccess::pack(Access::read((i as u32) * 4)))
            .collect();
        let results = batch_sweep_packed(
            &all_policies(config(64, 4)),
            &accesses,
            KindFilter::Instructions,
        );
        for result in &results {
            assert_eq!(result.stats().accesses(), 0);
            assert_eq!(result.stats().misses(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn sweep_rejects_associative_config() {
        let cfg = CacheConfig::new(64, 4, 2).unwrap();
        batch_sweep(&[SweepPoint::new(cfg, SweepPolicy::DirectMapped)], &[0]);
    }
}
