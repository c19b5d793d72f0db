//! The Section 3 analytic pattern table and the Figure 2 benchmark table.

use dynex_cache::CacheConfig;
use dynex_engine::PolicyKind;
use dynex_trace::Trace;
use dynex_workload::patterns as pat;

use crate::runner::miss_rate_grid;
use crate::{Table, Workloads};

/// Section 3: the three common reference patterns, analytic miss rates from
/// the paper vs the simulators.
///
/// | pattern            | conventional DM | optimal DM |
/// |--------------------|-----------------|-----------|
/// | `(a^10 b^10)^10`   | 10%             | 10%       |
/// | `(a^10 b)^10`      | 18%             | 10%       |
/// | `(a b)^10`         | 100%            | 55%       |
///
/// Dynamic exclusion lands within two misses of optimal on each.
pub fn patterns() -> Table {
    let config = CacheConfig::direct_mapped(64, 4).expect("valid config");
    let (a, b) = pat::conflicting_pair(64);
    let cases: [(&str, Trace, f64, f64); 3] = [
        (
            "(a^10 b^10)^10",
            pat::conflict_between_loops(a, b, 10, 10),
            10.0,
            10.0,
        ),
        (
            "(a^10 b)^10",
            pat::conflict_between_loop_levels(a, b, 10, 10),
            18.0,
            10.0,
        ),
        ("(a b)^10", pat::conflict_within_loop(a, b, 10), 100.0, 55.0),
    ];
    let mut table = Table::new(
        "Section 3: common reference patterns (miss rates, %)",
        vec![
            "pattern",
            "paper DM",
            "measured DM",
            "paper OPT",
            "measured OPT",
            "measured DE",
        ],
    );
    let policies = [
        PolicyKind::DirectMapped,
        PolicyKind::DynamicExclusion,
        PolicyKind::OptimalDm,
    ];
    for (name, trace, paper_dm, paper_opt) in cases {
        let addrs: Vec<u32> = trace.iter().map(|x| x.addr()).collect();
        let [dm, de, opt] = miss_rate_grid(&[config], policies, &addrs)[0];
        table.push_row(vec![
            name.to_owned(),
            format!("{paper_dm:.0}"),
            format!("{dm:.1}"),
            format!("{paper_opt:.0}"),
            format!("{opt:.1}"),
            format!("{de:.1}"),
        ]);
    }
    table
}

/// Figure 2: the benchmark table, extended with measured stream statistics
/// of the synthetic profiles.
pub fn fig2(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 2: SPEC benchmarks used for evaluation (synthetic profiles)",
        vec![
            "benchmark",
            "description",
            "refs",
            "instr %",
            "I-footprint KB",
            "D-footprint KB",
        ],
    );
    for profile in workloads.profiles() {
        let stats = workloads.stats(profile.name());
        table.push_row(vec![
            profile.name().to_owned(),
            profile.description().to_owned(),
            stats.total().to_string(),
            format!("{:.1}", stats.instruction_fraction() * 100.0),
            (stats.instruction_footprint_bytes() / 1024).to_string(),
            (stats.data_footprint_bytes() / 1024).to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_paper_analytics() {
        let t = patterns();
        assert_eq!(t.n_rows(), 3);
        // Measured DM must equal the paper's analytic numbers exactly.
        for row in 0..3 {
            let paper: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            let measured: f64 = t.cell(row, 2).unwrap().parse().unwrap();
            assert!(
                (paper - measured).abs() < 0.51,
                "row {row}: {paper} vs {measured}"
            );
            let paper_opt: f64 = t.cell(row, 3).unwrap().parse().unwrap();
            let measured_opt: f64 = t.cell(row, 4).unwrap().parse().unwrap();
            assert!((paper_opt - measured_opt).abs() < 0.51, "row {row} opt");
        }
    }

    #[test]
    fn de_close_to_optimal_on_patterns() {
        let t = patterns();
        for row in 0..3 {
            let opt: f64 = t.cell(row, 4).unwrap().parse().unwrap();
            let de: f64 = t.cell(row, 5).unwrap().parse().unwrap();
            // Within 2 misses of optimal; the longest pattern has 200 refs,
            // so 2 misses <= 10 percentage points at 20 refs.
            assert!(de - opt <= 10.0 + 1e-9, "row {row}: de {de} opt {opt}");
        }
    }

    #[test]
    fn fig2_lists_all_profiles() {
        let w = Workloads::generate(1_000);
        let t = fig2(&w);
        assert_eq!(t.n_rows(), 10);
        assert!(t.row_by_key("doduc").is_some());
    }
}
