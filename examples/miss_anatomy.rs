//! Where do the misses come from, and which ones can dynamic exclusion
//! remove? Classifies a benchmark's direct-mapped misses into the classic
//! three C's and contrasts the conflict share with what DE and the optimal
//! cache recover.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynex-experiments --example miss_anatomy
//! ```

use dynex::{DeCache, OptimalDirectMapped};
use dynex_cache::{classify_direct_mapped, run_addrs, CacheConfig};
use dynex_trace::filter;
use dynex_workload::spec;

fn main() {
    let refs: usize = std::env::var("DYNEX_REFS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);

    let config = CacheConfig::direct_mapped(32 * 1024, 4).expect("valid config");

    println!("3C anatomy of instruction misses at 32KB/4B:\n");
    println!(
        "{:<10} {:>8} {:>11} {:>9} {:>9} {:>8} {:>8}",
        "benchmark", "miss %", "compulsory", "capacity", "conflict", "DE rm%", "OPT rm%"
    );
    for name in ["doduc", "espresso", "fpppp", "gcc", "spice"] {
        let profile = spec::profile(name).expect("built-in profile");
        let addrs: Vec<u32> = filter::instructions(profile.trace(refs).iter())
            .map(|a| a.addr())
            .collect();
        let classes = classify_direct_mapped(config, addrs.iter().copied());
        let total = classes.total_misses().max(1) as f64;
        let mut de = DeCache::new(config);
        let de_misses = run_addrs(&mut de, addrs.iter().copied()).misses();
        let opt_misses = OptimalDirectMapped::simulate(config, addrs.iter().copied()).misses();
        println!(
            "{:<10} {:>7.3}% {:>10.1}% {:>8.1}% {:>8.1}% {:>7.1}% {:>7.1}%",
            name,
            classes.miss_rate_percent(),
            classes.compulsory as f64 / total * 100.0,
            classes.capacity as f64 / total * 100.0,
            classes.conflict as f64 / total * 100.0,
            (total - de_misses as f64) / total * 100.0,
            (total - opt_misses as f64) / total * 100.0,
        );
    }

    println!(
        "\nnote: 'capacity' uses the classic fully-associative-LRU definition; on\n\
         cyclically re-executed code DE's per-line bypass can remove misses that\n\
         the 3C taxonomy files under capacity — bypassing beats global LRU there."
    );
}
