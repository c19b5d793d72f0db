//! Integration: properties of the synthetic workloads that the experiments
//! depend on, observed through the cache substrate.

use dynex_cache::{run, CacheConfig, DirectMapped, FullyAssociative};
use dynex_trace::TraceStats;
use dynex_workload::spec;

#[test]
fn traces_are_bit_reproducible() {
    for name in spec::NAMES {
        let a = spec::profile(name).unwrap().trace(50_000);
        let b = spec::profile(name).unwrap().trace(50_000);
        assert_eq!(a, b, "{name}");
    }
}

#[test]
fn instruction_fractions_look_like_1992_risc_code() {
    // Pixie-era traces are ~70-98% instruction fetches depending on the
    // benchmark's data intensity.
    for name in spec::NAMES {
        let stats = TraceStats::from_accesses(spec::profile(name).unwrap().trace(100_000).iter());
        let frac = stats.instruction_fraction();
        assert!(
            (0.55..=0.995).contains(&frac),
            "{name}: instruction fraction {frac:.2}"
        );
    }
}

#[test]
fn footprint_ordering_matches_the_benchmark_suite() {
    // gcc and spice are the big-code benchmarks; the numeric kernels are
    // tiny; everything else is in between.
    let code = |n: &str| spec::profile(n).unwrap().program().code_bytes();
    assert!(code("gcc") > code("espresso"));
    assert!(code("spice") > code("li"));
    assert!(code("espresso") > code("mat300"));
    assert!(code("mat300") < 4 * 1024);
    assert!(code("tomcatv") < 8 * 1024);
}

#[test]
fn loops_dominate_conflicts_are_real() {
    // At a cache far larger than any footprint, instruction miss rates are
    // negligible (everything is loops); at a small cache the big benchmarks
    // conflict heavily.
    for name in ["gcc", "spice", "doduc"] {
        let trace = spec::profile(name).unwrap().trace(500_000);
        let instr: Vec<_> = dynex_trace::filter::instructions(trace.iter()).collect();

        let huge = CacheConfig::direct_mapped(1 << 21, 4).unwrap();
        let mut big_cache = DirectMapped::new(huge);
        let big = run(&mut big_cache, instr.iter().copied());
        assert!(
            big.miss_rate() < 0.05,
            "{name}: 2MB cache should hold the whole program, rate {:.4}",
            big.miss_rate()
        );

        let small = CacheConfig::direct_mapped(4 * 1024, 4).unwrap();
        let mut small_cache = DirectMapped::new(small);
        let tight = run(&mut small_cache, instr.iter().copied());
        assert!(
            tight.miss_rate() > 0.03,
            "{name}: 4KB cache should conflict, rate {:.4}",
            tight.miss_rate()
        );
    }
}

#[test]
fn fixable_conflict_misses_exist_at_mid_sizes() {
    // The whole premise of the paper: at mid sizes a meaningful share of the
    // direct-mapped misses are removable by a better per-line replacement
    // decision — exactly what the optimal DM cache measures.
    let trace = spec::profile("doduc").unwrap().trace(1_000_000);
    let instr: Vec<u32> = dynex_trace::filter::instructions(trace.iter())
        .map(|a| a.addr())
        .collect();

    let config = CacheConfig::direct_mapped(32 * 1024, 4).unwrap();
    let mut dm = DirectMapped::new(config);
    let dm_stats = run(
        &mut dm,
        instr.iter().map(|&a| dynex_trace::Access::fetch(a)),
    );
    let opt = dynex::OptimalDirectMapped::simulate(config, instr.iter().copied());

    assert!(
        dm_stats.misses() as f64 > 1.2 * opt.misses() as f64,
        "conflict headroom should exist: dm {} vs opt {}",
        dm_stats.misses(),
        opt.misses()
    );
}

#[test]
fn fully_associative_lru_can_lose_to_direct_mapped_on_phase_rotations() {
    // A documented property of the generated workloads (and of real cyclic
    // programs): LRU thrashes on working sets slightly above capacity, so
    // fully-associative LRU is not automatically the conflict-free
    // reference. This pins the behaviour so nobody "fixes" a test back to
    // the wrong premise.
    let trace = spec::profile("gcc").unwrap().trace(500_000);
    let instr: Vec<_> = dynex_trace::filter::instructions(trace.iter()).collect();
    let mut dm = DirectMapped::new(CacheConfig::direct_mapped(32 * 1024, 4).unwrap());
    let dm_stats = run(&mut dm, instr.iter().copied());
    let mut fa = FullyAssociative::new(32 * 1024, 4).unwrap();
    let fa_stats = run(&mut fa, instr.iter().copied());
    // No ordering assertion either way — just that both simulate sanely.
    assert!(dm_stats.accesses() == fa_stats.accesses());
    assert!(dm_stats.misses() > 0 && fa_stats.misses() > 0);
}

#[test]
fn stack_traffic_stays_in_the_stack_segment() {
    let trace = spec::profile("li").unwrap().trace(200_000);
    for access in trace.iter().filter(|a| a.is_data()) {
        let addr = access.addr();
        let in_data = (0x1000_0000..0x4000_0000).contains(&addr);
        let in_stack = addr >= 0x7ff0_0000;
        assert!(in_data || in_stack, "stray data address {addr:#x}");
    }
}
