//! Figures 14–15: data and combined caches.

use crate::api::TripleKind;
use crate::runner::{averaged_sweep, dm_configs, reduction};
use crate::{Table, Workloads, SIZE_SWEEP_KB};

/// The size sweep of one stream at 4-byte lines, rendered as a table of
/// average miss rates and DE's reduction.
fn render(title: &str, workloads: &Workloads, stream: fn(&Workloads, &str) -> Vec<u32>) -> Table {
    let mut table = Table::new(
        title,
        vec![
            "size KB",
            "direct-mapped %",
            "dynamic exclusion %",
            "optimal DM %",
            "DE red. %",
        ],
    );
    let rates = averaged_sweep(
        workloads,
        stream,
        TripleKind::Plain,
        &dm_configs(&SIZE_SWEEP_KB, 4),
    );
    for (kb, (dm, de, opt)) in SIZE_SWEEP_KB.iter().zip(rates) {
        table.push_row(vec![
            kb.to_string(),
            format!("{dm:.3}"),
            format!("{de:.3}"),
            format!("{opt:.3}"),
            format!("{:.1}", reduction(dm, de)),
        ]);
    }
    table
}

/// Figure 14: data-cache dynamic exclusion vs cache size (4B lines).
///
/// The paper's finding: data reference patterns differ from instruction
/// patterns and a conventional direct-mapped cache is already close to
/// optimal for them, so DE's improvement is much smaller than on instruction
/// streams (and can go slightly negative at large sizes from cold-start
/// training).
pub fn fig14(workloads: &Workloads) -> Table {
    render(
        "Figure 14: average DATA-cache miss rate vs size, b=4B",
        workloads,
        Workloads::data_addrs,
    )
}

/// Figure 15: combined I+D cache dynamic exclusion vs cache size (4B lines).
///
/// Instruction references dominate misses at small sizes (DE helps nearly as
/// much as on pure instruction caches); data dominates at large sizes (the
/// improvement shrinks).
pub fn fig15(workloads: &Workloads) -> Table {
    render(
        "Figure 15: average COMBINED I+D cache miss rate vs size, b=4B",
        workloads,
        Workloads::all_addrs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_figures_cover_sizes() {
        let w = Workloads::generate(2_000);
        assert_eq!(fig14(&w).n_rows(), SIZE_SWEEP_KB.len());
        assert_eq!(fig15(&w).n_rows(), SIZE_SWEEP_KB.len());
    }

    #[test]
    fn opt_is_lower_bound_in_both() {
        let w = Workloads::generate(2_000);
        for t in [fig14(&w), fig15(&w)] {
            for row in 0..t.n_rows() {
                let dm: f64 = t.cell(row, 1).unwrap().parse().unwrap();
                let opt: f64 = t.cell(row, 3).unwrap().parse().unwrap();
                assert!(opt <= dm + 1e-9, "{}", t.title());
            }
        }
    }
}
