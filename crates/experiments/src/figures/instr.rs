//! Figures 3–5: single-level instruction caches with one-word lines.

use dynex_cache::CacheConfig;

use crate::api::{sweep_triples, TripleKind};
use crate::runner::{averaged_sweep, dm_configs, reduction};
use crate::{Table, Workloads, HEADLINE_SIZE, SIZE_SWEEP_KB};

fn pct(v: f64) -> String {
    format!("{v:.3}")
}

fn pct1(v: f64) -> String {
    format!("{v:.1}")
}

/// Figure 3: per-benchmark instruction-cache miss rates at 32KB with 4-byte
/// lines, for conventional DM, dynamic exclusion, and optimal DM.
pub fn fig3(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 3: I-cache miss rates, S=32KB, b=4B (%)",
        vec![
            "benchmark",
            "direct-mapped",
            "dynamic exclusion",
            "optimal DM",
            "DE reduction %",
        ],
    );
    let config = CacheConfig::direct_mapped(HEADLINE_SIZE, 4).expect("valid config");
    let names: Vec<&str> = workloads.iter().map(|(name, _)| name).collect();
    let traces: Vec<Vec<u32>> = names.iter().map(|n| workloads.instr_addrs(n)).collect();
    let points: Vec<(CacheConfig, &[u32])> =
        traces.iter().map(|t| (config, t.as_slice())).collect();
    for (name, t) in names.iter().zip(sweep_triples(&points)) {
        table.push_row(vec![
            (*name).to_owned(),
            pct(t.dm.miss_rate_percent()),
            pct(t.de.miss_rate_percent()),
            pct(t.opt.miss_rate_percent()),
            pct1(t.de_reduction()),
        ]);
    }
    table
}

/// The size sweep shared by Figures 4 and 5: average miss-rate percentages
/// `(dm, de, opt)` across the ten benchmarks per [`SIZE_SWEEP_KB`] size,
/// 4-byte lines.
fn size_sweep(workloads: &Workloads) -> Vec<(f64, f64, f64)> {
    averaged_sweep(
        workloads,
        Workloads::instr_addrs,
        TripleKind::Plain,
        &dm_configs(&SIZE_SWEEP_KB, 4),
    )
}

/// Figure 4: average instruction-cache miss rate vs cache size (4B lines).
pub fn fig4(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 4: average I-cache miss rate vs size, b=4B (%)",
        vec![
            "size KB",
            "direct-mapped",
            "dynamic exclusion",
            "optimal DM",
        ],
    );
    for (kb, (dm, de, opt)) in SIZE_SWEEP_KB.iter().zip(size_sweep(workloads)) {
        table.push_row(vec![kb.to_string(), pct(dm), pct(de), pct(opt)]);
    }
    table
}

/// Figure 5: percentage reduction in average miss rate vs cache size
/// (4B lines). The paper's DE curve peaks at ~37% around 32KB.
pub fn fig5(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 5: % reduction of average I-cache miss rate vs size, b=4B",
        vec!["size KB", "dynamic exclusion %", "optimal DM %"],
    );
    for (kb, (dm, de, opt)) in SIZE_SWEEP_KB.iter().zip(size_sweep(workloads)) {
        table.push_row(vec![
            kb.to_string(),
            pct1(reduction(dm, de)),
            pct1(reduction(dm, opt)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workloads {
        Workloads::generate(3_000)
    }

    #[test]
    fn fig3_has_all_benchmarks() {
        let t = fig3(&tiny());
        assert_eq!(t.n_rows(), 10);
        assert!(t.row_by_key("gcc").is_some());
        assert!(t.row_by_key("tomcatv").is_some());
    }

    #[test]
    fn fig4_covers_all_sizes() {
        let t = fig4(&tiny());
        assert_eq!(t.n_rows(), SIZE_SWEEP_KB.len());
        assert_eq!(t.cell(0, 0), Some("1"));
        assert_eq!(t.cell(7, 0), Some("128"));
    }

    #[test]
    fn fig5_reductions_bounded() {
        let t = fig5(&tiny());
        for row in 0..t.n_rows() {
            let de: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            assert!(de <= 100.0);
        }
    }

    #[test]
    fn opt_never_above_dm_in_sweep() {
        for (dm, _, opt) in size_sweep(&tiny()) {
            assert!(opt <= dm + 1e-9);
        }
    }
}
