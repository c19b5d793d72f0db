//! Shared simulation drivers: the DM / DE / OPT comparison the paper's
//! figures are built from.
//!
//! Every figure column with a [`PolicyKind`] runs through [`run_jobs`] under
//! the session kernel: the averaged triple sweeps through `averaged_sweep`
//! (the journal-aware sweep in [`crate::api`]), every other column through
//! `policy_runs` or one of its views (`miss_rate_grid`, and
//! `traffic_runs`, which adds DM's and DE's cache-side traffic from the
//! walk's own counters), one engine call per trace. Only the
//! reference-only columns listed in [`crate::figures`] use `miss_rate`.
//! Figures fan out one pool job per benchmark (`per_benchmark`) and average
//! in benchmark order (`bench_means`), so no figure depends on `--jobs` or
//! `--kernel`.

use dynex::DeStats;
use dynex_cache::{run_addrs, CacheConfig, CacheSim, CacheStats};
use dynex_engine::{default_jobs, default_kernel, execute, run_jobs, Job, PolicyKind};
use dynex_obs::NoopProbe;

use crate::api::{journaled_triples, TripleKind};
use crate::{Table, Workloads};

/// Results of one workload under the three caches the paper compares
/// throughout: conventional direct-mapped, dynamic exclusion, and optimal
/// direct-mapped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triple {
    /// Conventional direct-mapped.
    pub dm: CacheStats,
    /// Dynamic exclusion (perfect hit-last store).
    pub de: CacheStats,
    /// Optimal direct-mapped with bypass.
    pub opt: CacheStats,
}

impl Triple {
    /// DE's percentage miss reduction vs the conventional cache.
    pub fn de_reduction(&self) -> f64 {
        self.de.percent_reduction_vs(&self.dm)
    }

    /// OPT's percentage miss reduction vs the conventional cache.
    pub fn opt_reduction(&self) -> f64 {
        self.opt.percent_reduction_vs(&self.dm)
    }
}

/// Averages miss-rate percentages across per-benchmark triples (the paper's
/// "average across the SPEC benchmarks").
pub fn average_rates(triples: &[Triple]) -> (f64, f64, f64) {
    let n = triples.len().max(1) as f64;
    let dm = triples
        .iter()
        .map(|t| t.dm.miss_rate_percent())
        .sum::<f64>()
        / n;
    let de = triples
        .iter()
        .map(|t| t.de.miss_rate_percent())
        .sum::<f64>()
        / n;
    let opt = triples
        .iter()
        .map(|t| t.opt.miss_rate_percent())
        .sum::<f64>()
        / n;
    (dm, de, opt)
}

/// The direct-mapped configurations of `sizes_kb` at `line_bytes` lines.
pub(crate) fn dm_configs(sizes_kb: &[u32], line_bytes: u32) -> Vec<CacheConfig> {
    sizes_kb
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024, line_bytes).expect("valid config"))
        .collect()
}

/// `runs[c][p]`: the statistics and exclusion counters of `policies[p]` at
/// the direct-mapped base geometry `configs[c]` (with the policy's
/// associativity) over `addrs`, from one [`run_jobs`] call under the
/// session kernel, so on the fast path every dm/de/opt job shares one walk.
pub(crate) fn policy_runs<const K: usize>(
    configs: &[CacheConfig],
    policies: [PolicyKind; K],
    addrs: &[u32],
) -> Vec<[(CacheStats, Option<DeStats>); K]> {
    let jobs: Vec<Job> = configs
        .iter()
        .flat_map(|c| {
            policies.map(|policy| {
                let ways = policy.associativity();
                let config = CacheConfig::new(c.size_bytes(), c.line_bytes(), ways);
                Job::new(config.expect("valid config"), policy)
            })
        })
        .collect();
    let mut probes = vec![NoopProbe; jobs.len()];
    run_jobs(default_kernel(), &jobs, addrs, &mut probes)
        .chunks_exact(K)
        .map(|row| std::array::from_fn(|p| row[p]))
        .collect()
}

/// [`policy_runs`] as miss rates (%): `grid[c][p]` is `policies[p]`'s miss
/// rate at `configs[c]`.
pub(crate) fn miss_rate_grid<const K: usize>(
    configs: &[CacheConfig],
    policies: [PolicyKind; K],
    addrs: &[u32],
) -> Vec<[f64; K]> {
    policy_runs(configs, policies, addrs)
        .into_iter()
        .map(|row| row.map(|(stats, _)| stats.miss_rate_percent()))
        .collect()
}

/// [`policy_runs`] with the cache-side traffic of the DM and DE columns:
/// `runs[c][p]` is `policies[p]`'s statistics at `configs[c]`, and where
/// that policy is `dm` or `de` they carry the probes, fills and writebacks
/// of the paper's cache: every access is a probe; DM fills on every miss
/// and DE on every load; and every fill but a set's first displaces a valid
/// line, since a set's first reference always fills its empty frame under
/// both policies and a frame never empties again. These are the counts the
/// spec simulators (`DirectMapped`, `DeCache`) give with a counting probe
/// attached, a writeback being an eviction event. Other policies'
/// statistics are the engine's.
///
/// # Panics
///
/// Panics if the configurations differ in line size.
pub(crate) fn traffic_runs<const K: usize>(
    configs: &[CacheConfig],
    policies: [PolicyKind; K],
    addrs: &[u32],
) -> Vec<[CacheStats; K]> {
    let touched = touched_sets(configs, addrs);
    policy_runs(configs, policies, addrs)
        .into_iter()
        .zip(touched)
        .map(|(row, touched)| {
            std::array::from_fn(|p| {
                let (stats, de) = row[p];
                let fills = match policies[p] {
                    PolicyKind::DirectMapped => stats.misses(),
                    PolicyKind::DynamicExclusion => {
                        de.expect("a DE job reports exclusion counters").loads
                    }
                    _ => return stats,
                };
                let probes = stats.accesses();
                CacheStats::from_traffic_counts(
                    stats.accesses(),
                    stats.misses(),
                    fills,
                    fills - touched,
                    probes,
                )
            })
        })
        .collect()
}

/// How many sets of each direct-mapped `configs[c]` the trace references,
/// from one pass at the largest set count: a smaller power-of-two index is
/// the low bits of the larger one.
///
/// # Panics
///
/// Panics if the configurations differ in line size.
fn touched_sets(configs: &[CacheConfig], addrs: &[u32]) -> Vec<u64> {
    let Some(widest) = configs.iter().max_by_key(|c| c.n_sets()) else {
        return Vec::new();
    };
    assert!(
        configs
            .iter()
            .all(|c| c.line_bytes() == widest.line_bytes()),
        "one line size"
    );
    let offset_bits = widest.geometry().offset_bits();
    let mask = widest.n_sets() - 1;
    let mut touched = vec![false; widest.n_sets() as usize];
    for &addr in addrs {
        touched[((addr >> offset_bits) & mask) as usize] = true;
    }
    configs
        .iter()
        .map(|c| {
            let n_sets = c.n_sets() as usize;
            let mut folded = vec![false; n_sets];
            for (set, _) in touched.iter().enumerate().filter(|(_, &t)| t) {
                folded[set & (n_sets - 1)] = true;
            }
            folded.iter().filter(|&&t| t).count() as u64
        })
        .collect()
}

/// The averaged triple sweep behind Figures 4, 5, 11, 12, 14 and 15: each
/// benchmark's `stream` is materialized once, every (config, benchmark)
/// point runs through the journal-aware sweep of `kind`, and the result
/// holds the benchmark-average `(dm, de, opt)` miss-rate percentages per
/// config, in config order.
pub(crate) fn averaged_sweep(
    workloads: &Workloads,
    stream: fn(&Workloads, &str) -> Vec<u32>,
    kind: TripleKind,
    configs: &[CacheConfig],
) -> Vec<(f64, f64, f64)> {
    let traces: Vec<Vec<u32>> = workloads
        .iter()
        .map(|(name, _)| stream(workloads, name))
        .collect();
    let mut points: Vec<(CacheConfig, &[u32])> = Vec::new();
    for &config in configs {
        points.extend(traces.iter().map(|t| (config, t.as_slice())));
    }
    journaled_triples(&points, kind)
        .chunks(traces.len())
        .map(average_rates)
        .collect()
}

/// Runs `f` over every benchmark's instruction stream on the engine's
/// worker pool ([`execute`] at [`default_jobs`]) and returns the results in
/// benchmark order. Each job materializes its own stream, so only as many
/// streams as workers are live at once.
pub(crate) fn per_benchmark<R, F>(workloads: &Workloads, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&[u32]) -> R + Sync,
{
    let names: Vec<&str> = workloads.iter().map(|(name, _)| name).collect();
    execute(&names, default_jobs(), |name| {
        f(&workloads.instr_addrs(name))
    })
}

/// Appends one row per benchmark to `table`: the benchmark's name, then the
/// cells `f` renders from its instruction stream (via [`per_benchmark`]).
pub(crate) fn push_benchmark_rows<F>(table: &mut Table, workloads: &Workloads, f: F)
where
    F: Fn(&[u32]) -> Vec<String> + Sync,
{
    let names = workloads.iter().map(|(name, _)| name);
    for (name, cells) in names.zip(per_benchmark(workloads, f)) {
        table.push_row(std::iter::once(name.to_owned()).chain(cells).collect());
    }
}

/// The miss rate (%) of a fresh `cache` over `addrs`: the driver of the
/// reference-only columns, which have no [`PolicyKind`].
pub(crate) fn miss_rate<S: CacheSim>(mut cache: S, addrs: &[u32]) -> f64 {
    run_addrs(&mut cache, addrs.iter().copied()).miss_rate_percent()
}

/// Benchmark averages of a per-benchmark grid: `per_bench[b][c]` holds
/// benchmark `b`'s `K` values at configuration `c`, and the result holds
/// their means per configuration. Each sum runs from zero in benchmark
/// order, exactly like a serial `+=` loop over the benchmarks, so the
/// means are bit-identical for every worker count.
pub(crate) fn bench_means<const K: usize>(per_bench: &[Vec<[f64; K]>]) -> Vec<[f64; K]> {
    let n = per_bench.len() as f64;
    let configs = per_bench.first().map_or(0, Vec::len);
    (0..configs)
        .map(|c| {
            let mut sums = [0.0; K];
            for bench in per_bench {
                for (sum, value) in sums.iter_mut().zip(bench[c]) {
                    *sum += value;
                }
            }
            sums.map(|sum| sum / n)
        })
        .collect()
}

/// Percentage reduction of `new` vs `base` miss-rate percentages.
pub fn reduction(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{run_triple, triples_of};
    use dynex::DeCache;
    use dynex_cache::DirectMapped;
    use dynex_obs::CountingProbe;

    fn thrash() -> Vec<u32> {
        (0..40).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect()
    }

    #[test]
    fn triple_orders_correctly() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let t = run_triple(default_kernel(), config, &thrash());
        assert!(t.opt.misses() <= t.de.misses());
        assert!(t.de.misses() < t.dm.misses());
        assert!(t.de_reduction() > 0.0);
        assert!(t.opt_reduction() >= t.de_reduction());
    }

    #[test]
    fn lastline_triple_runs() {
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let addrs: Vec<u32> = (0..200)
            .map(|i| {
                if (i / 4) % 2 == 0 {
                    (i % 4) * 4
                } else {
                    64 + (i % 4) * 4
                }
            })
            .collect();
        let t = triples_of(TripleKind::LastLine, default_kernel(), &[config], &addrs)[0];
        assert!(t.opt.misses() <= t.de.misses());
        assert!(t.de.misses() <= t.dm.misses());
    }

    #[test]
    fn averaging() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let t = run_triple(default_kernel(), config, &thrash());
        let (dm, de, opt) = average_rates(&[t, t]);
        assert_eq!(dm, t.dm.miss_rate_percent());
        assert_eq!(de, t.de.miss_rate_percent());
        assert_eq!(opt, t.opt.miss_rate_percent());
        assert_eq!(average_rates(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn bench_means_sum_in_benchmark_order() {
        // Two benchmarks, two configurations, two values each.
        let per_bench = vec![vec![[0.1, 1.0], [3.0, 0.0]], vec![[0.2, 3.0], [5.0, 0.0]]];
        assert_eq!(
            bench_means(&per_bench),
            vec![[(0.0 + 0.1 + 0.2) / 2.0, 2.0], [4.0, 0.0]]
        );
        assert!(bench_means::<3>(&[]).is_empty());
    }

    #[test]
    fn per_benchmark_is_in_benchmark_order() {
        let w = Workloads::generate(300);
        let lens: Vec<usize> = w
            .iter()
            .map(|(name, _)| w.instr_addrs(name).len())
            .collect();
        assert_eq!(per_benchmark(&w, |addrs| addrs.len()), lens);
    }

    /// `stats` with the cache-side traffic `probe` counted: a probe per
    /// access event, `fills` fills, and a writeback per eviction event.
    fn counted_traffic(stats: CacheStats, fills: u64, probe: &CountingProbe) -> CacheStats {
        let counts = probe.counts();
        CacheStats::from_traffic_counts(
            stats.accesses(),
            stats.misses(),
            fills,
            counts.evictions,
            counts.accesses,
        )
    }

    /// The traffic [`traffic_runs`] derives from the shared walk's counters
    /// equals what the spec simulators count event by event.
    #[test]
    fn derived_traffic_equals_the_policy_driver() {
        let configs = dm_configs(&crate::figures::ZOO_SIZES_KB, 4);
        let w = Workloads::generate(20_000);
        let mut traces = vec![
            Vec::new(),
            // Every reference in set 0 at every size: lines 32 KB apart.
            (0..3_000).map(|i| (i % 5) * 32 * 1024).collect(),
            // A 1.5 KB loop: thrashes the 1 KB cache and fits the others.
            (0..6_000).map(|i| (i % 384) * 4).collect(),
        ];
        for (name, _) in w.iter() {
            traces.extend([w.instr_addrs(name), w.data_addrs(name), w.all_addrs(name)]);
        }
        let mut writebacks = [0u64; 2];
        for (t, addrs) in traces.iter().enumerate() {
            let policies = [PolicyKind::DirectMapped, PolicyKind::DynamicExclusion];
            let derived = traffic_runs(&configs, policies, addrs);
            for (&config, [dm, de]) in configs.iter().zip(derived) {
                let mut dm_sim = DirectMapped::with_probe(config, CountingProbe::new());
                let stats = run_addrs(&mut dm_sim, addrs.iter().copied());
                let expected_dm = counted_traffic(stats, stats.misses(), dm_sim.probe());
                let mut de_sim = DeCache::with_probe(config, CountingProbe::new());
                let stats = run_addrs(&mut de_sim, addrs.iter().copied());
                let expected_de = counted_traffic(stats, de_sim.de_stats().loads, de_sim.probe());
                assert_eq!(dm, expected_dm, "dm, trace {t} @ {config}");
                assert_eq!(de, expected_de, "de, trace {t} @ {config}");
                writebacks[0] += dm.writebacks();
                writebacks[1] += de.writebacks();
            }
        }
        assert!(writebacks.iter().all(|&w| w > 0), "{writebacks:?}");
    }

    #[test]
    fn touched_sets_fold_the_widest_index() {
        let configs = dm_configs(&[1, 4], 4);
        // Lines 0, 1 and 1025 touch sets 0 and 1 at both sizes; line 256
        // has a set of its own at 4 KB and shares set 0 at 1 KB.
        let addrs = [0, 4, 1024 * 4 + 4, 256 * 4];
        assert_eq!(touched_sets(&configs, &addrs), vec![2, 3]);
        assert_eq!(touched_sets(&configs, &[]), vec![0, 0]);
        assert!(touched_sets(&[], &addrs).is_empty());
    }

    #[test]
    fn reduction_math() {
        assert_eq!(reduction(10.0, 5.0), 50.0);
        assert_eq!(reduction(0.0, 5.0), 0.0);
        assert!(reduction(5.0, 10.0) < 0.0);
    }
}
