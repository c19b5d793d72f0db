//! Extension experiments beyond the paper's figures: miss-class anatomy,
//! associativity comparison, cold-start accounting, and the Section 6
//! line-buffer alternatives.

use dynex::{DeCache, DeStreamBuffer, InstrRegisterDeCache, LastLineDeCache, OptimalDirectMapped};
use dynex_cache::{
    classify_direct_mapped, run_addrs, CacheConfig, CacheSim, DirectMapped, Replacement,
    SetAssociative,
};

use crate::runner::{bench_means, miss_rate, per_benchmark, push_benchmark_rows, reduction};
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
        let mut de = DeCache::new(config);
        let de_stats = run_addrs(&mut de, addrs.iter().copied());
        let opt = OptimalDirectMapped::simulate(config, addrs.iter().copied());
        let removed = |m: u64| (classes.total_misses() as f64 - m as f64) / total * 100.0;
        vec![
            format!("{:.3}", classes.miss_rate_percent()),
            format!("{:.1}", classes.compulsory as f64 / total * 100.0),
            format!("{:.1}", classes.capacity as f64 / total * 100.0),
            format!("{:.1}", classes.conflict as f64 / total * 100.0),
            format!("{:.1}", removed(de_stats.misses())),
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
    let per_bench = per_benchmark(workloads, |addrs| {
        SIZES_KB
            .map(|kb| {
                let dm_cfg = CacheConfig::direct_mapped(kb * 1024, 4).expect("valid config");
                let w2 = CacheConfig::new(kb * 1024, 4, 2).expect("valid config");
                let w4 = CacheConfig::new(kb * 1024, 4, 4).expect("valid config");
                [
                    miss_rate(DirectMapped::new(dm_cfg), addrs),
                    miss_rate(DeCache::new(dm_cfg), addrs),
                    miss_rate(SetAssociative::new(w2, Replacement::Lru), addrs),
                    miss_rate(SetAssociative::new(w4, Replacement::Lru), addrs),
                ]
            })
            .to_vec()
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
        let split = addrs.len() / 10;
        let mut dm = DirectMapped::new(config);
        let mut de = DeCache::new(config);
        let (mut dm_head, mut de_head) = (0i64, 0i64);
        let (mut dm_tail, mut de_tail) = (0i64, 0i64);
        for (i, &a) in addrs.iter().enumerate() {
            let dm_miss = dm.access(a).is_miss() as i64;
            let de_miss = de.access(a).is_miss() as i64;
            if i < split {
                dm_head += dm_miss;
                de_head += de_miss;
            } else {
                dm_tail += dm_miss;
                de_tail += de_miss;
            }
        }
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
    let per_bench = per_benchmark(workloads, |addrs| {
        SIZES_KB
            .map(|kb| {
                let config = CacheConfig::direct_mapped(kb * 1024, 16).expect("valid config");
                [
                    miss_rate(DirectMapped::new(config), addrs),
                    miss_rate(InstrRegisterDeCache::new(config), addrs),
                    miss_rate(LastLineDeCache::new(config), addrs),
                    miss_rate(DeStreamBuffer::new(config, 4), addrs),
                ]
            })
            .to_vec()
    });
    for (kb, [dm_a, reg_a, ll_a, sb_a]) in SIZES_KB.into_iter().zip(bench_means(&per_bench)) {
        table.push_row(vec![
            kb.to_string(),
            format!("{dm_a:.3}"),
            format!("{reg_a:.3}"),
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
