//! Figures 7–9: the two-level organization and the three hit-last storage
//! strategies.

use dynex::{hierarchy_sweep, HitLastStrategy};
use dynex_cache::CacheConfig;
use dynex_engine::default_kernel;

use crate::runner::{bench_means, per_benchmark, reduction};
use crate::{Table, Workloads, HEADLINE_SIZE, L2_RATIO_SWEEP};

/// Average L1/L2 miss-rate percentages across benchmarks for one
/// configuration of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Point {
    /// L2:L1 size ratio.
    pub ratio: u32,
    /// Conventional DM L1 over DM L2: L1 miss rate (%).
    pub dm_l1: f64,
    /// Conventional hierarchy: global L2 miss rate (%).
    pub dm_l2: f64,
    /// Per DE strategy (hashed, assume-hit, assume-miss): L1 and global L2
    /// miss rates (%).
    pub de: [(f64, f64); 3],
}

/// The strategies in report order.
pub const STRATEGIES: [HitLastStrategy; 3] = [
    HitLastStrategy::Hashed { bits_per_line: 4 },
    HitLastStrategy::AssumeHit,
    HitLastStrategy::AssumeMiss,
];

/// Runs the L1=32KB, b=4B instruction-cache hierarchy sweep over the L2:L1
/// ratios of Figures 7–9. Shared by [`fig7`], [`fig8`], and [`fig9`].
///
/// Each benchmark's ratios and strategies run through one
/// [`hierarchy_sweep`] under the session kernel: the per-point spec
/// simulators under `reference`, the one-pass kernel otherwise.
pub fn l2_sweep(workloads: &Workloads) -> Vec<L2Point> {
    let l1 = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let l2s = L2_RATIO_SWEEP
        .map(|ratio| CacheConfig::direct_mapped(HEADLINE_SIZE * ratio, 4).expect("valid config"));
    let kernel = default_kernel();
    // Per benchmark and ratio: the conventional L1 and global L2 rates,
    // then each strategy's L1 and global L2 rates.
    let per_bench = per_benchmark(workloads, |addrs| {
        hierarchy_sweep(kernel, l1, &l2s, &STRATEGIES, addrs)
            .expect("valid hierarchy")
            .iter()
            .map(|point| {
                let mut rates = [0.0; 8];
                let b = point.conventional;
                rates[0] = b.l1.miss_rate_percent();
                rates[1] = b.global_l2_miss_rate() * 100.0;
                for (k, s) in point.de.iter().enumerate() {
                    rates[2 + 2 * k] = s.l1.miss_rate_percent();
                    rates[3 + 2 * k] = s.l2.misses() as f64 / s.l1.accesses().max(1) as f64 * 100.0;
                }
                rates
            })
            .collect()
    });
    L2_RATIO_SWEEP
        .into_iter()
        .zip(bench_means(&per_bench))
        .map(|(ratio, m)| L2Point {
            ratio,
            dm_l1: m[0],
            dm_l2: m[1],
            de: [(m[2], m[3]), (m[4], m[5]), (m[6], m[7])],
        })
        .collect()
}

/// Figure 7: DE L1 miss rate (and reduction vs conventional) as the L2 grows
/// from 1x to 64x the L1, per hit-last strategy. The paper's finding: most
/// of the benefit arrives once L2 >= 4x L1; assume-hit at 1x degenerates to
/// conventional behavior.
pub fn fig7(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 7: DE L1 miss rate vs relative L2 size (L1=32KB, b=4B)",
        vec![
            "L2/L1 ratio",
            "DM L1 %",
            "hashed L1 %",
            "assume-hit L1 %",
            "assume-miss L1 %",
            "hashed red. %",
            "assume-hit red. %",
            "assume-miss red. %",
        ],
    );
    for point in l2_sweep(workloads) {
        table.push_row(vec![
            point.ratio.to_string(),
            format!("{:.3}", point.dm_l1),
            format!("{:.3}", point.de[0].0),
            format!("{:.3}", point.de[1].0),
            format!("{:.3}", point.de[2].0),
            format!("{:.1}", reduction(point.dm_l1, point.de[0].0)),
            format!("{:.1}", reduction(point.dm_l1, point.de[1].0)),
            format!("{:.1}", reduction(point.dm_l1, point.de[2].0)),
        ]);
    }
    table
}

/// Figure 8: global L2 miss rate vs L2 size. The conventional hierarchy and
/// assume-hit coincide (inclusive contents); assume-miss and hashed benefit
/// from L1/L2 exclusion.
pub fn fig8(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 8: global L2 miss rate vs L2 size (L1=32KB, b=4B)",
        vec![
            "L2 size KB",
            "DM / assume-hit %",
            "assume-hit %",
            "assume-miss %",
            "hashed %",
        ],
    );
    for point in l2_sweep(workloads) {
        table.push_row(vec![
            (point.ratio * HEADLINE_SIZE / 1024).to_string(),
            format!("{:.3}", point.dm_l2),
            format!("{:.3}", point.de[1].1),
            format!("{:.3}", point.de[2].1),
            format!("{:.3}", point.de[0].1),
        ]);
    }
    table
}

/// Figure 9: percentage reduction of the global L2 miss rate vs the
/// conventional hierarchy, per strategy. Assume-miss improves the L2 most —
/// it maximizes the content difference between the levels.
pub fn fig9(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 9: L2 miss-rate reduction vs L2 size (L1=32KB, b=4B)",
        vec!["L2 size KB", "assume-hit %", "assume-miss %", "hashed %"],
    );
    for point in l2_sweep(workloads) {
        table.push_row(vec![
            (point.ratio * HEADLINE_SIZE / 1024).to_string(),
            format!("{:.1}", reduction(point.dm_l2, point.de[1].1)),
            format!("{:.1}", reduction(point.dm_l2, point.de[2].1)),
            format!("{:.1}", reduction(point.dm_l2, point.de[0].1)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_ratios() {
        let w = Workloads::generate(2_000);
        let sweep = l2_sweep(&w);
        assert_eq!(sweep.len(), L2_RATIO_SWEEP.len());
        assert_eq!(sweep[0].ratio, 1);
        assert_eq!(sweep.last().unwrap().ratio, 64);
    }

    #[test]
    fn tables_have_ratio_rows() {
        let w = Workloads::generate(1_000);
        assert_eq!(fig7(&w).n_rows(), L2_RATIO_SWEEP.len());
        assert_eq!(fig8(&w).n_rows(), L2_RATIO_SWEEP.len());
        assert_eq!(fig9(&w).n_rows(), L2_RATIO_SWEEP.len());
    }
}
