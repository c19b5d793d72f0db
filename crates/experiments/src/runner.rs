//! Shared simulation drivers: the DM / DE / OPT comparison the paper's
//! figures are built from.
//!
//! Since PR 2 the drivers sit on `dynex-engine`: the single-point entry
//! points ([`triple`], [`triple_lastline`]) dispatch through
//! [`dynex_engine::PolicyKind`], and the sweep entry points fan the points out
//! over the engine's deterministic worker pool. Results are in plan order
//! and bit-identical for every worker count, so figures built on these
//! functions never depend on `--jobs`. The sweep entry points and the
//! explicit-kernel triple live in [`crate::api`]. Figures that are not
//! triple sweeps fan out one pool job per benchmark through
//! `per_benchmark` and average with `bench_means`, under the same
//! guarantee.

use dynex::{DeCache, OptimalDirectMapped};
use dynex_cache::{run_addrs, CacheConfig, CacheSim, CacheStats};
use dynex_engine::{default_jobs, default_kernel, execute, PolicyKind};
use dynex_obs::{CountingProbe, EventCounts};

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

/// Runs the three-way comparison at word-line granularity (`b = 4`) with
/// the session's [`dynex_engine::default_kernel`].
pub fn triple(config: CacheConfig, addrs: &[u32]) -> Triple {
    crate::api::run_triple(default_kernel(), config, addrs)
}

/// One labelled triple as a JSON object (a JSONL line, without the newline).
///
/// The miss-rate and reduction fields use Rust's shortest-roundtrip float
/// formatting, so the text is a pure function of the statistics — exporting
/// a parallel sweep yields the same bytes as a serial one.
pub fn triple_to_json(label: &str, t: &Triple) -> String {
    let quoted = label.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        r#"{{"label":"{}","dm":{{"accesses":{},"misses":{},"rate":{}}},"de":{{"accesses":{},"misses":{},"rate":{}}},"opt":{{"accesses":{},"misses":{},"rate":{}}},"de_reduction":{},"opt_reduction":{}}}"#,
        quoted,
        t.dm.accesses(),
        t.dm.misses(),
        t.dm.miss_rate_percent(),
        t.de.accesses(),
        t.de.misses(),
        t.de.miss_rate_percent(),
        t.opt.accesses(),
        t.opt.misses(),
        t.opt.miss_rate_percent(),
        t.de_reduction(),
        t.opt_reduction(),
    )
}

/// Serializes labelled triples as JSONL (one [`triple_to_json`] object per
/// line), in slice order.
pub fn triples_to_jsonl<'a, I>(rows: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a Triple)>,
{
    let mut out = String::new();
    for (label, t) in rows {
        out.push_str(&triple_to_json(label, t));
        out.push('\n');
    }
    out
}

/// A [`Triple`] augmented with per-simulator event tallies from the
/// observability layer.
///
/// The DM and DE runs carry a [`CountingProbe`]; OPT is a two-pass oracle
/// without a probed hot path, so only its stats appear. The embedded
/// `Triple` is byte-identical to what [`triple`] returns for the same
/// inputs — instrumentation never perturbs simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedTriple {
    /// The plain three-way statistics.
    pub triple: Triple,
    /// Event tallies from the conventional direct-mapped run.
    pub dm_events: EventCounts,
    /// Event tallies from the dynamic-exclusion run (includes sticky flips,
    /// hit-last updates, and exclusion decisions).
    pub de_events: EventCounts,
}

/// Runs the three-way comparison with counting probes attached to the DM and
/// DE caches.
pub fn triple_observed(config: CacheConfig, addrs: &[u32]) -> ObservedTriple {
    let mut dm = dynex_cache::DirectMapped::with_probe(config, CountingProbe::new());
    let dm_stats = run_addrs(&mut dm, addrs.iter().copied());
    let mut de = DeCache::with_probe(config, CountingProbe::new());
    let de_stats = run_addrs(&mut de, addrs.iter().copied());
    let opt = OptimalDirectMapped::simulate(config, addrs.iter().copied());
    ObservedTriple {
        triple: Triple {
            dm: dm_stats,
            de: de_stats,
            opt,
        },
        dm_events: dm.into_probe().counts(),
        de_events: de.into_probe().counts(),
    }
}

/// Runs the three-way comparison for multi-word lines: DE and OPT both get
/// the Section 6 last-line buffer; the conventional cache stays bare.
pub fn triple_lastline(config: CacheConfig, addrs: &[u32]) -> Triple {
    let simulate = |policy: PolicyKind| {
        policy
            .simulate(config, addrs)
            .expect("dm and the lastline variants run on every kernel")
    };
    Triple {
        dm: simulate(PolicyKind::DirectMapped),
        de: simulate(PolicyKind::DeLastLine),
        opt: simulate(PolicyKind::OptimalDmLastLine),
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

/// The miss rate (%) of a fresh `cache` over `addrs`.
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

    fn thrash() -> Vec<u32> {
        (0..40).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect()
    }

    #[test]
    fn triple_orders_correctly() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let t = triple(config, &thrash());
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
        let t = triple_lastline(config, &addrs);
        assert!(t.opt.misses() <= t.de.misses());
        assert!(t.de.misses() <= t.dm.misses());
    }

    #[test]
    fn averaging() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let t = triple(config, &thrash());
        let (dm, de, opt) = average_rates(&[t, t]);
        assert_eq!(dm, t.dm.miss_rate_percent());
        assert_eq!(de, t.de.miss_rate_percent());
        assert_eq!(opt, t.opt.miss_rate_percent());
        assert_eq!(average_rates(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn observed_triple_matches_bare_triple_and_stats() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let bare = triple(config, &addrs);
        let observed = triple_observed(config, &addrs);
        assert_eq!(observed.triple, bare);
        // Event tallies must agree with the statistics they mirror.
        assert_eq!(observed.dm_events.accesses, bare.dm.accesses());
        assert_eq!(observed.dm_events.misses, bare.dm.misses());
        assert_eq!(observed.de_events.accesses, bare.de.accesses());
        assert_eq!(observed.de_events.misses, bare.de.misses());
        // Every DE miss carries an exclusion decision.
        assert_eq!(
            observed.de_events.exclusion_loads + observed.de_events.exclusion_bypasses,
            bare.de.misses()
        );
        // The thrash trace bypasses: DE must report some excluded loads.
        assert!(observed.de_events.exclusion_bypasses > 0);
        // A conventional cache makes no exclusion decisions.
        assert_eq!(observed.dm_events.exclusion_loads, 0);
        assert_eq!(observed.dm_events.exclusion_bypasses, 0);
    }

    #[test]
    fn jsonl_is_one_object_per_row_in_order() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let t = triple(config, &addrs);
        let jsonl = triples_to_jsonl([("first", &t), ("with \"quotes\"", &t)]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"label":"first","dm":{"accesses":40"#));
        assert!(lines[1].starts_with(r#"{"label":"with \"quotes\"","#));
        assert!(lines[0].contains(r#""de_reduction":"#));
        assert_eq!(jsonl, format!("{}\n{}\n", lines[0], lines[1]));
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

    #[test]
    fn reduction_math() {
        assert_eq!(reduction(10.0, 5.0), 50.0);
        assert_eq!(reduction(0.0, 5.0), 0.0);
        assert!(reduction(5.0, 10.0) < 0.0);
    }
}
