//! Figures 11–13: line sizes above one word.

use dynex::{HashedStore, LastLineDeCache};
use dynex_cache::{CacheConfig, DirectMapped};

use crate::api::sweep_triples_lastline;
use crate::runner::{average_rates, bench_means, miss_rate, per_benchmark, reduction};
use crate::{Table, Workloads, HEADLINE_SIZE, LINE_SWEEP_BYTES, SIZE_SWEEP_KB};

/// The lastline sweep shared by Figures 11 and 12: every (config, benchmark)
/// point on the engine's pool, averaged per config in plan order.
fn lastline_sweep(workloads: &Workloads, configs: &[CacheConfig]) -> Vec<(f64, f64, f64)> {
    let traces: Vec<Vec<u32>> = workloads
        .iter()
        .map(|(name, _)| workloads.instr_addrs(name))
        .collect();
    let mut points: Vec<(CacheConfig, &[u32])> = Vec::new();
    for &config in configs {
        points.extend(traces.iter().map(|t| (config, t.as_slice())));
    }
    let results = sweep_triples_lastline(&points);
    results.chunks(traces.len()).map(average_rates).collect()
}

/// Figure 11: average I-cache performance vs line size at 32KB. DE and OPT
/// carry the Section 6 last-line buffer. The paper's improvement declines
/// from 37% at 4B lines to ~25% at 64B (internal fragmentation creates
/// unfixable conflicts).
pub fn fig11(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 11: average I-cache miss rate vs line size, S=32KB",
        vec![
            "line B",
            "direct-mapped %",
            "dynamic exclusion %",
            "optimal DM %",
            "DE red. %",
        ],
    );
    let configs: Vec<CacheConfig> = LINE_SWEEP_BYTES
        .iter()
        .map(|&line| CacheConfig::direct_mapped(HEADLINE_SIZE, line).expect("valid config"))
        .collect();
    for (&line, (dm, de, opt)) in LINE_SWEEP_BYTES
        .iter()
        .zip(lastline_sweep(workloads, &configs))
    {
        table.push_row(vec![
            line.to_string(),
            format!("{dm:.3}"),
            format!("{de:.3}"),
            format!("{opt:.3}"),
            format!("{:.1}", reduction(dm, de)),
        ]);
    }
    table
}

/// Figure 12: average I-cache miss rate and DE improvement vs cache size at
/// 16-byte lines (the paper's headline claim: ~33% average reduction for a
/// 32KB cache with 16B lines).
pub fn fig12(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Figure 12: average I-cache miss rate vs size, b=16B",
        vec![
            "size KB",
            "direct-mapped %",
            "dynamic exclusion %",
            "optimal DM %",
            "DE red. %",
        ],
    );
    let configs: Vec<CacheConfig> = SIZE_SWEEP_KB
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024, 16).expect("valid config"))
        .collect();
    for (&kb, (dm, de, opt)) in SIZE_SWEEP_KB
        .iter()
        .zip(lastline_sweep(workloads, &configs))
    {
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

/// Figure 13: efficiency of adding dynamic exclusion vs doubling capacity.
///
/// Baseline: 8KB direct-mapped, 16B lines. Alternatives: 8KB DE (last-line
/// buffer + 4 hashed hit-last bits per line, the paper's assumed hardware)
/// and a 16KB direct-mapped cache. Reports the size increase, the miss-rate
/// change, and their ratio — the paper finds DE roughly 15x more
/// size-efficient than doubling capacity.
pub fn fig13(workloads: &Workloads) -> Table {
    let base8 = CacheConfig::direct_mapped(8 * 1024, 16).expect("valid config");
    let dm16 = CacheConfig::direct_mapped(16 * 1024, 16).expect("valid config");

    let per_bench = per_benchmark(workloads, |addrs| {
        vec![[
            miss_rate(DirectMapped::new(base8), addrs),
            miss_rate(
                LastLineDeCache::with_store(base8, HashedStore::new(base8, 4)),
                addrs,
            ),
            miss_rate(DirectMapped::new(dm16), addrs),
        ]]
    });
    let [dm8_rate, de8_rate, dm16_rate] = bench_means(&per_bench)[0];

    // Storage accounting: the baseline cache's data + tag + valid bits vs the
    // DE additions (last-line buffer, sticky, hashed hit-last bits).
    let base_bits = cache_bits(base8);
    let de_extra = LastLineDeCache::new(base8).overhead_bits(4);
    let de_delta_size = de_extra as f64 / base_bits as f64 * 100.0;
    let double_delta_size = 100.0;

    let de_delta_miss = reduction(dm8_rate, de8_rate);
    let double_delta_miss = reduction(dm8_rate, dm16_rate);

    let mut table = Table::new(
        "Figure 13: dynamic exclusion efficiency (b=16B)",
        vec![
            "design",
            "miss rate %",
            "dSize %",
            "dMissRate %",
            "dMiss/dSize",
        ],
    );
    table.push_row(vec![
        "8KB DM (baseline)".to_owned(),
        format!("{dm8_rate:.3}"),
        "0.0".to_owned(),
        "0.0".to_owned(),
        "-".to_owned(),
    ]);
    table.push_row(vec![
        "8KB DE".to_owned(),
        format!("{de8_rate:.3}"),
        format!("{de_delta_size:.1}"),
        format!("{de_delta_miss:.1}"),
        format!("{:.1}", de_delta_miss / de_delta_size),
    ]);
    table.push_row(vec![
        "16KB DM".to_owned(),
        format!("{dm16_rate:.3}"),
        format!("{double_delta_size:.1}"),
        format!("{double_delta_miss:.1}"),
        format!("{:.2}", double_delta_miss / double_delta_size),
    ]);
    table
}

/// Total storage bits of a conventional cache: data + tag + valid per line.
fn cache_bits(config: CacheConfig) -> u64 {
    let geometry = config.geometry();
    let tag_bits = 32 - geometry.offset_bits() as u64 - geometry.index_bits() as u64;
    let per_line = config.line_bytes() as u64 * 8 + tag_bits + 1;
    per_line * config.n_lines() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_rows() {
        let w = Workloads::generate(2_000);
        let t = fig11(&w);
        assert_eq!(t.n_rows(), LINE_SWEEP_BYTES.len());
        assert_eq!(t.cell(0, 0), Some("4"));
    }

    #[test]
    fn fig12_rows() {
        let w = Workloads::generate(1_000);
        assert_eq!(fig12(&w).n_rows(), SIZE_SWEEP_KB.len());
    }

    #[test]
    fn fig13_size_overhead_is_small() {
        let w = Workloads::generate(1_000);
        let t = fig13(&w);
        assert_eq!(t.n_rows(), 3);
        let de_size: f64 = t.cell(1, 2).unwrap().parse().unwrap();
        assert!(
            de_size < 10.0,
            "DE overhead should be a few percent, got {de_size}"
        );
        let dbl: f64 = t.cell(2, 2).unwrap().parse().unwrap();
        assert_eq!(dbl, 100.0);
    }

    #[test]
    fn cache_bits_accounting() {
        // 8KB, 16B lines: 512 lines x (128 data + 19 tag + 1 valid).
        let c = CacheConfig::direct_mapped(8 * 1024, 16).unwrap();
        assert_eq!(cache_bits(c), 512 * (128 + 19 + 1));
    }
}
