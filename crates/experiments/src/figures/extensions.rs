//! Extension experiments beyond the paper's figures: miss-class anatomy,
//! associativity comparison, cold-start accounting, and the Section 6
//! line-buffer alternatives.

use dynex::DeStreamBuffer;
use dynex_cache::{classify_direct_mapped, CacheConfig};
use dynex_engine::PolicyKind;

use crate::runner::{
    bench_means, dm_configs, miss_rate, miss_rate_grid, per_benchmark, policy_runs,
    push_benchmark_rows, reduction,
};
use crate::{Table, Workloads, HEADLINE_SIZE};

/// Miss anatomy: the 3C classification of every benchmark's direct-mapped
/// misses at 32KB, next to the share DE and OPT actually remove.
///
/// Dynamic exclusion can only attack conflict misses; this table shows how
/// much of each benchmark's miss rate is conflict in the first place, and
/// what fraction of it the FSM recovers.
pub fn conflicts(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let mut table = Table::new(
        "Extension: 3C miss anatomy at S=32KB, b=4B (I-streams)",
        vec![
            "benchmark",
            "DM miss %",
            "compulsory %",
            "capacity %",
            "conflict %",
            "DE removes %",
            "OPT removes %",
        ],
    );
    push_benchmark_rows(&mut table, workloads, |addrs| {
        let classes = classify_direct_mapped(config, addrs.iter().copied());
        let total = classes.total_misses().max(1) as f64;
        let [(de, _), (opt, _)] = policy_runs(
            &[config],
            [PolicyKind::DynamicExclusion, PolicyKind::OptimalDm],
            addrs,
        )[0];
        let removed = |m: u64| (classes.total_misses() as f64 - m as f64) / total * 100.0;
        vec![
            format!("{:.3}", classes.miss_rate_percent()),
            format!("{:.1}", classes.compulsory as f64 / total * 100.0),
            format!("{:.1}", classes.capacity as f64 / total * 100.0),
            format!("{:.1}", classes.conflict as f64 / total * 100.0),
            format!("{:.1}", removed(de.misses())),
            format!("{:.1}", removed(opt.misses())),
        ]
    });
    table
}

/// Associativity comparison: the paper's framing is that direct-mapped
/// caches win on access time but lose misses to set-associative designs;
/// dynamic exclusion recovers part of that gap without the slower hit path.
pub fn assoc(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Extension: DE vs set-associativity (avg I-miss %, b=4B)",
        vec![
            "size KB",
            "DM",
            "DM+DE",
            "2-way LRU",
            "4-way LRU",
            "DE closes gap %",
        ],
    );
    const SIZES_KB: [u32; 4] = [8, 16, 32, 64];
    let configs = dm_configs(&SIZES_KB, 4);
    let per_bench = per_benchmark(workloads, |addrs| {
        let policies = [
            PolicyKind::DirectMapped,
            PolicyKind::DynamicExclusion,
            PolicyKind::TwoWay,
            PolicyKind::FourWay,
        ];
        miss_rate_grid(&configs, policies, addrs)
    });
    for (kb, [dm_a, de_a, a2, a4]) in SIZES_KB.into_iter().zip(bench_means(&per_bench)) {
        // How much of the DM -> 2-way gap DE closes (can exceed 100% if DE
        // beats 2-way).
        let gap = dm_a - a2;
        let closed = if gap.abs() < 1e-12 {
            0.0
        } else {
            (dm_a - de_a) / gap * 100.0
        };
        table.push_row(vec![
            kb.to_string(),
            format!("{dm_a:.3}"),
            format!("{de_a:.3}"),
            format!("{a2:.3}"),
            format!("{a4:.3}"),
            format!("{closed:.0}"),
        ]);
    }
    table
}

/// Cold-start accounting: the paper attributes nasa7/tomcatv's slight DE
/// regression to extra misses while the state bits initialize. This splits
/// each benchmark's DE-vs-DM delta into the first tenth of the stream
/// (training) and the rest (steady state).
pub fn coldstart(workloads: &Workloads) -> Table {
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let mut table = Table::new(
        "Extension: DE training cost at S=32KB, b=4B (misses, DE - DM)",
        vec![
            "benchmark",
            "delta first 10%",
            "delta rest",
            "steady-state red. %",
        ],
    );
    push_benchmark_rows(&mut table, workloads, |addrs| {
        // Both simulators are online, so the head's misses are those of a
        // run over the head alone, and the rest is the whole run minus them.
        let [head, whole] = [&addrs[..addrs.len() / 10], addrs].map(|refs| {
            let policies = [PolicyKind::DirectMapped, PolicyKind::DynamicExclusion];
            policy_runs(&[config], policies, refs)[0].map(|(stats, _)| stats.misses() as i64)
        });
        let [dm_head, de_head] = head;
        let [dm_tail, de_tail] = [whole[0] - head[0], whole[1] - head[1]];
        let steady_red = if dm_tail > 0 {
            (dm_tail - de_tail) as f64 / dm_tail as f64 * 100.0
        } else {
            0.0
        };
        vec![
            (de_head - dm_head).to_string(),
            (de_tail - dm_tail).to_string(),
            format!("{steady_red:.1}"),
        ]
    });
    table
}

/// The three Section 6 structures for multi-word lines, compared at 16B
/// lines across sizes: instruction register (== last-line by construction),
/// last-line buffer (the paper's evaluated variant), and the stream-buffer
/// variant (strictly stronger: prefetch for free).
///
/// The instruction-register column is the last-line column: the two
/// structures miss on exactly the same references (`InstrRegisterDeCache`
/// is pinned to `LastLineDeCache` at these geometries over the profile
/// instruction streams in `dynex-core`), so both come from the one
/// `de-lastline` job.
pub fn ablate_linebuf(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Ablation: Section 6 line-buffer alternatives (avg I-miss %, b=16B)",
        vec![
            "size KB",
            "DM",
            "instr register",
            "last-line",
            "DE+stream(4)",
            "stream red. %",
        ],
    );
    const SIZES_KB: [u32; 4] = [8, 16, 32, 64];
    let configs = dm_configs(&SIZES_KB, 16);
    let per_bench = per_benchmark(workloads, |addrs| {
        let policies = [PolicyKind::DirectMapped, PolicyKind::DeLastLine];
        let engine = miss_rate_grid(&configs, policies, addrs);
        configs
            .iter()
            .zip(engine)
            .map(|(&config, [dm, last_line])| {
                [
                    dm,
                    last_line,
                    miss_rate(DeStreamBuffer::new(config, 4), addrs),
                ]
            })
            .collect()
    });
    for (kb, [dm_a, ll_a, sb_a]) in SIZES_KB.into_iter().zip(bench_means(&per_bench)) {
        table.push_row(vec![
            kb.to_string(),
            format!("{dm_a:.3}"),
            format!("{ll_a:.3}"),
            format!("{ll_a:.3}"),
            format!("{sb_a:.3}"),
            format!("{:.1}", reduction(dm_a, sb_a)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workloads {
        Workloads::generate(2_000)
    }

    #[test]
    fn conflicts_table_shape() {
        let t = conflicts(&tiny());
        assert_eq!(t.n_rows(), 10);
        // Per-row: compulsory + capacity + conflict == 100 (of DM misses).
        for row in 0..t.n_rows() {
            let parts: f64 = (2..5)
                .map(|c| t.cell(row, c).unwrap().parse::<f64>().unwrap())
                .sum();
            let dm: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            if dm > 0.0 {
                assert!((parts - 100.0).abs() < 0.5, "row {row}: {parts}");
            }
        }
    }

    #[test]
    fn assoc_table_shape() {
        let t = assoc(&tiny());
        assert_eq!(t.n_rows(), 4);
    }

    #[test]
    fn coldstart_reports_each_benchmark() {
        let t = coldstart(&tiny());
        assert_eq!(t.n_rows(), 10);
    }

    #[test]
    fn linebuf_register_column_equals_lastline() {
        let t = ablate_linebuf(&tiny());
        for row in 0..t.n_rows() {
            assert_eq!(t.cell(row, 2), t.cell(row, 3), "register == last-line");
        }
    }
}
