//! Policy-zoo figures: the headline comparisons of the two papers shipped
//! through the PR-10 policy API.
//!
//! * [`ehc`] — the Expected-Hit-Count comparison (arXiv 1808.05024): EHC
//!   scores a line by how many hits it is expected to deliver within a
//!   capacity-scaled window and declines to install lines that would
//!   deliver fewer hits than the incumbent. The paper's headline is that
//!   hit-count-aware replacement recovers a large share of the conflict
//!   misses a naive policy leaves on the table; here it lands between DM
//!   and the OPT oracle at every sweep size.
//! * [`bwcost`] — the bandwidth-cost comparison ("To Update or Not To
//!   Update?", arXiv 1907.02167): replacement decisions priced in
//!   line-sized transfers (probes + fills + writebacks) rather than misses
//!   alone. The headline is that bypassing low-value fills cuts cache-side
//!   traffic even where it barely moves the miss rate — exactly the regime
//!   where DE's exclusion bypass wins.
//!
//! Both figures dispatch through [`PolicyKind`], so they exercise the same
//! path the serve tier uses; the goldens under `results/golden/` pin the
//! bytes under the differential wall.

use dynex_cache::{simulate_policy, CacheConfig, DePolicy, DmPolicy};
use dynex_engine::{default_kernel, PolicyKind};

use crate::api::run_triples;
use crate::runner::{bench_means, per_benchmark, reduction};
use crate::{Table, Workloads};

/// Cache sizes the zoo figures sweep: small enough that conflict misses
/// dominate and the policies separate, up to the paper's headline 32KB.
const ZOO_SIZES_KB: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Expected-Hit-Count comparison (b=4B lines): average I-stream miss rates
/// for DM, DE, EHC, and OPT across the benchmark suite at each cache size,
/// with each policy's reduction vs the conventional cache — the EHC paper's
/// headline "hit-count-aware bypass tracks the oracle" curve.
pub fn ehc(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Zoo: expected-hit-count bypass vs size, b=4B (EHC, arXiv 1808.05024)",
        vec![
            "size KB",
            "DM miss %",
            "DE miss %",
            "EHC miss %",
            "OPT miss %",
            "DE red %",
            "EHC red %",
        ],
    );
    let configs =
        ZOO_SIZES_KB.map(|kb| CacheConfig::direct_mapped(kb * 1024, 4).expect("valid config"));
    let per_bench = per_benchmark(workloads, |addrs| {
        // The dm/de/opt columns of every size share one triple call (one
        // trace walk and one next-use oracle on the fast path); EHC runs
        // per size.
        let triples = run_triples(default_kernel(), &configs, addrs);
        configs
            .iter()
            .zip(triples)
            .map(|(&config, t)| {
                let ehc = PolicyKind::ExpectedHitCount.simulate(config, addrs);
                [t.dm, t.de, ehc, t.opt].map(|stats| stats.miss_rate_percent())
            })
            .collect()
    });
    for (kb, [dm_a, de_a, ehc_a, opt_a]) in ZOO_SIZES_KB.into_iter().zip(bench_means(&per_bench)) {
        table.push_row(vec![
            kb.to_string(),
            format!("{dm_a:.3}"),
            format!("{de_a:.3}"),
            format!("{ehc_a:.3}"),
            format!("{opt_a:.3}"),
            format!("{:.1}", reduction(dm_a, de_a)),
            format!("{:.1}", reduction(dm_a, ehc_a)),
        ]);
    }
    table
}

/// Bandwidth-cost comparison (b=4B lines): cache-side traffic in transfers
/// per kiloref, averaged across the benchmark suite at each cache size, for
/// a conventional fill-always cache, DE's exclusion bypass, and the
/// explicitly bandwidth-priced policy — next to the miss rates the traffic
/// buys. The bandwidth-aware paper's headline is the "saved %" columns:
/// bypass cuts traffic hardest exactly where conflict pressure is worst.
///
/// The DM and DE columns run through the traffic-accounting policy driver
/// (the legacy hit/miss kernels deliberately report zero traffic so old
/// journals replay byte-identically), so every column prices probes, fills,
/// and writebacks the same way.
pub fn bwcost(workloads: &Workloads) -> Table {
    let mut table = Table::new(
        "Zoo: bandwidth cost vs size, b=4B (transfers/kiloref, arXiv 1907.02167)",
        vec![
            "size KB",
            "DM bw",
            "DE bw",
            "BW bw",
            "DM miss %",
            "BW miss %",
            "DE bw saved %",
            "BW bw saved %",
        ],
    );
    let per_bench = per_benchmark(workloads, |addrs| {
        ZOO_SIZES_KB
            .map(|kb| {
                let config = CacheConfig::direct_mapped(kb * 1024, 4).expect("valid config");
                let dm = simulate_policy(config, addrs, &mut DmPolicy);
                let de = simulate_policy(config, addrs, &mut DePolicy::new(config, addrs));
                let bw = PolicyKind::BandwidthCost.simulate(config, addrs);
                [
                    dm.bandwidth_per_kiloref(),
                    de.bandwidth_per_kiloref(),
                    bw.bandwidth_per_kiloref(),
                    dm.miss_rate_percent(),
                    bw.miss_rate_percent(),
                ]
            })
            .to_vec()
    });
    for (kb, [dm_bw, de_bw, bw_bw, dm_miss, bw_miss]) in
        ZOO_SIZES_KB.into_iter().zip(bench_means(&per_bench))
    {
        table.push_row(vec![
            kb.to_string(),
            format!("{dm_bw:.1}"),
            format!("{de_bw:.1}"),
            format!("{bw_bw:.1}"),
            format!("{dm_miss:.3}"),
            format!("{bw_miss:.3}"),
            format!("{:.1}", reduction(dm_bw, de_bw)),
            format!("{:.1}", reduction(dm_bw, bw_bw)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ehc_lands_between_dm_and_opt() {
        let w = Workloads::generate(2_000);
        let config = CacheConfig::direct_mapped(1024, 4).unwrap();
        let (name, _) = w.iter().next().unwrap();
        let addrs = w.instr_addrs(name);
        let dm = PolicyKind::DirectMapped.simulate(config, &addrs);
        let ehc = PolicyKind::ExpectedHitCount.simulate(config, &addrs);
        let opt = PolicyKind::OptimalDm.simulate(config, &addrs);
        assert!(ehc.misses() <= dm.misses());
        assert!(opt.misses() <= ehc.misses());
    }

    #[test]
    fn zoo_figures_render() {
        let w = Workloads::generate(500);
        let e = ehc(&w);
        let b = bwcost(&w);
        assert_eq!(e.n_rows(), ZOO_SIZES_KB.len());
        assert_eq!(b.n_rows(), ZOO_SIZES_KB.len());
    }

    #[test]
    fn bandwidth_policy_never_costs_more_than_fill_always() {
        let w = Workloads::generate(2_000);
        let config = CacheConfig::direct_mapped(1024, 4).unwrap();
        for (name, _) in w.iter() {
            let addrs = w.instr_addrs(name);
            let dm = simulate_policy(config, &addrs, &mut DmPolicy);
            let bw = PolicyKind::BandwidthCost.simulate(config, &addrs);
            assert!(
                bw.bandwidth_transfers() <= dm.bandwidth_transfers(),
                "{name}: bw policy must not spend more transfers than fill-always"
            );
        }
    }
}
