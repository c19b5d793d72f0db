//! A design-space walk for a cache architect: given a fixed 8KB budget with
//! 16-byte lines, is dynamic exclusion worth its ~3.5% area, compared to
//! a victim cache, a stream buffer, doubling capacity, or going 2-way?
//!
//! Exercises most of the public API in one place (Sections 2, 6, and
//! Figure 13 of the paper).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynex-experiments --example design_space
//! ```

use dynex::{HashedStore, LastLineDeCache, OptimalDirectMapped};
use dynex_cache::{
    run_addrs, CacheConfig, DirectMapped, SetAssociative, StreamBuffer, VictimCache,
};
use dynex_trace::filter;
use dynex_workload::spec;

fn main() {
    let refs: usize = std::env::var("DYNEX_REFS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);

    println!("design space: 8KB instruction cache, 16B lines, synthetic SPEC'89 average\n");
    let names = spec::NAMES;
    let traces: Vec<Vec<u32>> = names
        .iter()
        .map(|n| {
            let p = spec::profile(n).expect("built-in profile");
            filter::instructions(p.trace(refs).iter())
                .map(|a| a.addr())
                .collect()
        })
        .collect();

    let base = CacheConfig::direct_mapped(8 * 1024, 16).expect("valid config");
    let double = CacheConfig::direct_mapped(16 * 1024, 16).expect("valid config");
    let two_way = CacheConfig::new(8 * 1024, 16, 2).expect("valid config");

    let avg = |f: &mut dyn FnMut(&[u32]) -> f64| -> f64 {
        traces.iter().map(|t| f(t)).sum::<f64>() / traces.len() as f64
    };

    let rows: Vec<(&str, f64)> = vec![
        (
            "8KB direct-mapped (baseline)",
            avg(&mut |t| {
                let mut c = DirectMapped::new(base);
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "8KB + dynamic exclusion (4 hashed bits)",
            avg(&mut |t| {
                let mut c = LastLineDeCache::with_store(base, HashedStore::new(base, 4));
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "8KB + 4-entry victim cache",
            avg(&mut |t| {
                let mut c = VictimCache::new(base, 4);
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "8KB + 4-deep stream buffer",
            avg(&mut |t| {
                let mut c = StreamBuffer::new(base, 4);
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "16KB direct-mapped (double the RAM)",
            avg(&mut |t| {
                let mut c = DirectMapped::new(double);
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "8KB 2-way LRU (slower access path)",
            avg(&mut |t| {
                let mut c = SetAssociative::new(two_way);
                run_addrs(&mut c, t.iter().copied()).miss_rate_percent()
            }),
        ),
        (
            "8KB optimal DM w/ bypass (bound)",
            avg(&mut |t| {
                OptimalDirectMapped::simulate_with_lastline(base, t.iter().copied())
                    .miss_rate_percent()
            }),
        ),
    ];

    let baseline = rows[0].1;
    println!("{:<42} {:>10} {:>12}", "design", "miss %", "vs baseline");
    for (name, rate) in &rows {
        println!(
            "{:<42} {:>9.3}% {:>+11.1}%",
            name,
            rate,
            if baseline > 0.0 {
                (baseline - rate) / baseline * 100.0
            } else {
                0.0
            }
        );
    }
    println!(
        "\nsize cost: DE adds ~{:.1}% bits; doubling adds 100%; 2-way adds mux+tag latency.",
        LastLineDeCache::new(base).overhead_bits(4) as f64
            / (8.0 * 1024.0 * 8.0) // data bits only, conservative
            * 100.0
    );
}
