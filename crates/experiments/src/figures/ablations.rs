//! Ablations and related-work comparisons the paper discusses in prose.

use dynex::{DeCache, HashedStore, MultiStickyDeCache};
use dynex_cache::{run, run_addrs, CacheConfig, StreamBuffer};
use dynex_engine::PolicyKind;
use dynex_workload::patterns as pat;

use crate::runner::{
    bench_means, miss_rate, miss_rate_grid, per_benchmark, policy_runs, push_benchmark_rows,
    reduction,
};
use crate::{Table, Workloads, HEADLINE_SIZE};

/// Multi-level sticky counters (Section 4 / \[McF91a\]).
///
/// Reports the `(a b c)^n` pattern (which defeats a single bit) and the
/// average SPEC instruction miss rate at 32KB for sticky depths 1–4 — the
/// paper's "mixed results": deeper counters fix three-way loops but slow
/// adaptation everywhere else.
pub fn ablate_sticky(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let small = CacheConfig::direct_mapped(64, 4).expect("valid config");
    let (a, b) = pat::conflicting_pair(64);
    let abc = pat::three_way_loop(a, b, b + 64, 200);

    let mut table = Table::new(
        "Ablation: sticky counter depth (b=4B)",
        vec![
            "sticky levels",
            "(abc)^200 miss %",
            "avg SPEC I-miss % @32KB",
        ],
    );
    const DEPTHS: [u8; 4] = [1, 2, 3, 4];
    let per_bench = per_benchmark(workloads, |addrs| {
        DEPTHS
            .map(|depth| [miss_rate(MultiStickyDeCache::new(config, depth), addrs)])
            .to_vec()
    });
    for (depth, [avg]) in DEPTHS.into_iter().zip(bench_means(&per_bench)) {
        let mut pattern_cache = MultiStickyDeCache::new(small, depth);
        let pattern_stats = run(&mut pattern_cache, abc.iter());
        table.push_row(vec![
            depth.to_string(),
            format!("{:.1}", pattern_stats.miss_rate_percent()),
            format!("{avg:.3}"),
        ]);
    }
    table
}

/// Hashed hit-last table width (Section 5): the paper finds four bits per
/// cache line recover nearly all of the unbounded store's benefit.
pub fn ablate_hashwidth(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let mut table = Table::new(
        "Ablation: hashed hit-last bits per line (S=32KB, b=4B)",
        vec!["bits/line", "avg I-miss %", "vs perfect store %"],
    );
    const BITS: [u32; 4] = [1, 2, 4, 8];
    // Per benchmark: the perfect store, then each hashed width.
    let per_bench = per_benchmark(workloads, |addrs| {
        let perfect = miss_rate_grid(&[config], [PolicyKind::DynamicExclusion], addrs)[0];
        let hashed = BITS.map(|bits| {
            [miss_rate(
                DeCache::with_store(config, HashedStore::new(config, bits)),
                addrs,
            )]
        });
        std::iter::once(perfect).chain(hashed).collect::<Vec<_>>()
    });
    let means = bench_means(&per_bench);
    let [perfect_avg] = means[0];
    for (bits, &[avg]) in BITS.into_iter().zip(&means[1..]) {
        table.push_row(vec![
            bits.to_string(),
            format!("{avg:.3}"),
            format!("{:+.1}", reduction(avg, perfect_avg)),
        ]);
    }
    table.push_row(vec![
        "perfect".to_owned(),
        format!("{perfect_avg:.3}"),
        "+0.0".to_owned(),
    ]);
    table
}

/// Victim cache comparison (Section 2, \[Jou90\]): a small fully-associative
/// victim buffer handles data-style pathological pairs but is overwhelmed by
/// the many conflicting blocks of instruction streams, where dynamic
/// exclusion is most effective.
pub fn victim(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let mut table = Table::new(
        "Related work: victim cache vs dynamic exclusion (I-cache, S=32KB, b=4B)",
        vec![
            "benchmark",
            "DM %",
            "DM+victim(4) %",
            "DE %",
            "victim red. %",
            "DE red. %",
        ],
    );
    push_benchmark_rows(&mut table, workloads, |addrs| {
        let policies = [
            PolicyKind::DirectMapped,
            PolicyKind::Victim,
            PolicyKind::DynamicExclusion,
        ];
        let [(dm_stats, _), (vc_stats, _), (de_stats, _)] =
            policy_runs(&[config], policies, addrs)[0];
        vec![
            format!("{:.3}", dm_stats.miss_rate_percent()),
            format!("{:.3}", vc_stats.miss_rate_percent()),
            format!("{:.3}", de_stats.miss_rate_percent()),
            format!("{:.1}", vc_stats.percent_reduction_vs(&dm_stats)),
            format!("{:.1}", de_stats.percent_reduction_vs(&dm_stats)),
        ]
    });
    table
}

/// Stream-buffer complementarity (Section 2, \[Jou90\]): stream buffers cut
/// sequential memory fetches, dynamic exclusion cuts conflict misses; they
/// attack different misses.
pub fn streambuf(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let mut table = Table::new(
        "Related work: stream buffer vs dynamic exclusion (I-cache, S=32KB, b=4B)",
        vec![
            "benchmark",
            "DM %",
            "DM+stream(4) %",
            "DE %",
            "stream hits",
            "DE bypasses",
        ],
    );
    push_benchmark_rows(&mut table, workloads, |addrs| {
        let policies = [PolicyKind::DirectMapped, PolicyKind::DynamicExclusion];
        let [(dm_stats, _), (de_stats, de)] = policy_runs(&[config], policies, addrs)[0];
        let mut sb = StreamBuffer::new(config, 4);
        let sb_stats = run_addrs(&mut sb, addrs.iter().copied());
        vec![
            format!("{:.3}", dm_stats.miss_rate_percent()),
            format!("{:.3}", sb_stats.miss_rate_percent()),
            format!("{:.3}", de_stats.miss_rate_percent()),
            sb.stream_stats().stream_hits.to_string(),
            de.expect("de reports its exclusion counters")
                .bypasses
                .to_string(),
        ]
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticky_depth_two_fixes_three_way_loop() {
        let w = Workloads::generate(500);
        let t = ablate_sticky(&w);
        assert_eq!(t.n_rows(), 4);
        let depth1: f64 = t.cell(0, 1).unwrap().parse().unwrap();
        let depth2: f64 = t.cell(1, 1).unwrap().parse().unwrap();
        assert!(depth1 > 99.0, "single bit misses everything: {depth1}");
        assert!(depth2 < 70.0, "two levels lock the loop: {depth2}");
    }

    #[test]
    fn hashwidth_table_has_perfect_row() {
        let w = Workloads::generate(500);
        let t = ablate_hashwidth(&w);
        assert_eq!(t.n_rows(), 5);
        assert!(t.row_by_key("perfect").is_some());
    }

    #[test]
    fn comparison_tables_cover_benchmarks() {
        let w = Workloads::generate(500);
        assert_eq!(victim(&w).n_rows(), 10);
        assert_eq!(streambuf(&w).n_rows(), 10);
    }
}
