//! Parallel design-space sweep on the dynex-engine worker pool.
//!
//! Sweeps cache size × policy over one synthetic instruction stream, first
//! serially, then on all available cores, and shows that the results are
//! identical — the engine's determinism contract.
//!
//! Run with: `cargo run --example parallel_sweep`

use std::time::Instant;

use dynex_cache::CacheConfig;
use dynex_engine::{available_jobs, execute, Job, PolicyKind};
use dynex_workload::spec;

fn main() {
    let profile = spec::profile("gcc").expect("gcc profile exists");
    let addrs: Vec<u32> = profile
        .trace(400_000)
        .iter()
        .filter(|a| a.is_instruction())
        .map(|a| a.addr())
        .collect();
    println!(
        "trace: {} instruction fetches (synthetic gcc)\n",
        addrs.len()
    );

    // One job per (size, policy) point.
    let mut plan = Vec::new();
    for kb in [1u32, 2, 4, 8, 16, 32] {
        let config = CacheConfig::direct_mapped(kb * 1024, 4).expect("valid config");
        for policy in [
            PolicyKind::DirectMapped,
            PolicyKind::DynamicExclusion,
            PolicyKind::OptimalDm,
        ] {
            plan.push(Job::new(config, policy));
        }
    }

    let cores = available_jobs();
    let started = Instant::now();
    let simulate = |job: &Job| job.policy.simulate(job.config, &addrs);
    let serial = execute(&plan, 1, simulate);
    let serial_time = started.elapsed();
    let started = Instant::now();
    let parallel = execute(&plan, cores, simulate);
    let parallel_time = started.elapsed();

    assert_eq!(serial, parallel, "the engine is deterministic");
    println!(
        "{} sweep points: serial {:.2}s, {} worker(s) {:.2}s — identical results",
        plan.len(),
        serial_time.as_secs_f64(),
        cores,
        parallel_time.as_secs_f64()
    );

    println!("\n  size    policy  miss rate");
    for (job, stats) in plan.iter().zip(&parallel) {
        println!(
            "  {:>5}  {:>6}  {:>8.4}%",
            format!("{}K", job.config.size_bytes() / 1024),
            job.policy.name(),
            stats.miss_rate_percent()
        );
    }
}
