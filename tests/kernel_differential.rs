//! The differential-testing wall for the fast simulation kernels.
//!
//! The fast path (`--kernel batch` and `--kernel sweep` both name it) is
//! only admissible because it is **bit-identical** to the reference
//! simulators. This suite holds that line as a three-way Reference × Batch
//! × Sweep matrix along every axis the drivers expose:
//!
//! * `CacheStats` (and DE load/bypass counters) for every built-in workload
//!   profile across a grid of cache sizes and line sizes,
//! * the fused dm+de+opt triple against three separate reference runs,
//! * a sweep mixing line sizes, decoded chunk by chunk up to a partial last
//!   chunk,
//! * probe event streams and interval-series CSV bytes,
//! * figure CSV output with the kernel and worker count flipped through the
//!   session globals, at `--jobs 1` and `--jobs 4`,
//! * `--resume` journals recorded under one kernel and replayed under
//!   another (journal keys are kernel-agnostic),
//! * `simcache --sweep` stdout for size lists of 1, 4 and 16 points,
//! * decode edge cases — empty traces, shorter-than-a-chunk traces,
//!   chunk-boundary-straddling loops, all-filtering kind filters,
//! * the whole-trace oracles (opt's next-use, EHC's windowed uses) on a
//!   trace whose line addresses span past 2^26.
//!
//! Tests that flip the session-wide kernel/jobs globals serialize behind
//! [`GLOBALS`] and restore the defaults before releasing it, so the rest of
//! the binary never observes a half-flipped session (this is also why the
//! suite is safe under `cargo test`'s default parallel threading).

use std::sync::{Mutex, MutexGuard, OnceLock};

use dynex::{DeCache, LastLineDeCache, OptimalDirectMapped, PerfectStore};
use dynex_cache::{
    batch_ehc, batch_sweep, batch_sweep_probed, decode_addrs, run_addrs, simulate_policy,
    BatchDeResult, CacheConfig, DirectMapped, EhcPolicy, Kernel, KindFilter, SplitMix64,
    SweepPoint, SweepPointResult, SweepPolicy, CHUNK_LEN,
};
use dynex_engine::{execute, set_default_jobs, set_default_kernel, PolicyKind};
use dynex_experiments::api::{self, run_triple, SimulationRequest};
use dynex_experiments::{figures, Workloads};
use dynex_obs::{export, Collector, EventLog};
use dynex_trace::{Access, PackedAccess};
use dynex_workload::AppParams;

/// Shared reduced-budget workloads (every built-in profile).
fn workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(|| Workloads::generate(6_000))
}

/// Serializes tests that mutate the session globals (default kernel, default
/// jobs); the guard restores the defaults on drop via the explicit calls at
/// the end of each test body.
fn lock_globals() -> MutexGuard<'static, ()> {
    static GLOBALS: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another test failed while holding it; the
    // globals are self-restoring (every path below resets them), so continue.
    GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

const SIZES: [u32; 3] = [1024, 8 * 1024, 32 * 1024];
const LINES: [u32; 2] = [4, 16];

/// The fast kernel's DE point at `config`, swept alone.
fn de_alone(config: CacheConfig, addrs: &[u32]) -> BatchDeResult {
    let point = SweepPoint::new(config, SweepPolicy::DynamicExclusion);
    batch_sweep(&[point], addrs)[0]
        .de()
        .expect("a DE point reports DE counters")
}

/// Every workload profile × size × line × policy: batch == reference, and
/// the fused triple == three reference runs. This is the acceptance-criteria
/// grid.
#[test]
fn every_profile_and_geometry_is_bit_identical_across_kernels() {
    let workloads = workloads();
    let names: Vec<String> = workloads.iter().map(|(n, _)| n.to_owned()).collect();
    for name in &names {
        let addrs = workloads.instr_addrs(name);
        for size in SIZES {
            for line in LINES {
                let config = CacheConfig::direct_mapped(size, line).unwrap();
                for policy in [
                    PolicyKind::DirectMapped,
                    PolicyKind::DynamicExclusion,
                    PolicyKind::OptimalDm,
                ] {
                    let reference = policy
                        .simulate_kernel(Kernel::Reference, config, &addrs)
                        .unwrap();
                    assert_eq!(
                        policy
                            .simulate_kernel(Kernel::Batch, config, &addrs)
                            .unwrap(),
                        reference,
                        "{name}: {} @ {config} (batch)",
                        policy.name()
                    );
                    assert_eq!(
                        policy
                            .simulate_kernel(Kernel::Sweep, config, &addrs)
                            .unwrap(),
                        reference,
                        "{name}: {} @ {config} (sweep)",
                        policy.name()
                    );
                }
                let reference_triple = run_triple(Kernel::Reference, config, &addrs);
                assert_eq!(
                    run_triple(Kernel::Batch, config, &addrs),
                    reference_triple,
                    "{name}: fused triple @ {config}"
                );
                assert_eq!(
                    run_triple(Kernel::Sweep, config, &addrs),
                    reference_triple,
                    "{name}: swept triple @ {config}"
                );
            }
        }
    }
}

/// DE's exclusion counters (loads/bypasses) agree between kernels on every
/// profile — `CacheStats` alone could mask a load/bypass mislabel that
/// happens to produce the same miss count.
#[test]
fn de_exclusion_counters_agree_across_kernels() {
    let workloads = workloads();
    let names: Vec<String> = workloads.iter().map(|(n, _)| n.to_owned()).collect();
    let config = CacheConfig::direct_mapped(4 * 1024, 4).unwrap();
    for name in &names {
        let addrs = workloads.instr_addrs(name);
        let mut reference = DeCache::new(config);
        let ref_stats = run_addrs(&mut reference, addrs.iter().copied());
        let batch = de_alone(config, &addrs);
        assert_eq!(batch.stats, ref_stats, "{name}");
        assert_eq!(batch.loads, reference.de_stats().loads, "{name}");
        assert_eq!(batch.bypasses, reference.de_stats().bypasses, "{name}");
    }
}

/// Probe parity: the fast kernel's DE point must emit the reference
/// cache's exact event stream, and the interval series built from it must
/// serialize to the same CSV bytes.
#[test]
fn probe_events_and_interval_csv_are_byte_identical() {
    let workloads = workloads();
    let (name, _) = workloads.iter().next().expect("built-in profiles exist");
    let addrs = workloads.instr_addrs(name);
    let config = CacheConfig::direct_mapped(2 * 1024, 4).unwrap();
    const WINDOW: u64 = 500;

    let mut reference = DeCache::with_probe(config, (Collector::new(WINDOW), EventLog::new()));
    let ref_stats = run_addrs(&mut reference, addrs.iter().copied());
    let (ref_collector, ref_log) = reference.into_probe();

    let mut probes = [(Collector::new(WINDOW), EventLog::new())];
    let point = SweepPoint::new(config, SweepPolicy::DynamicExclusion);
    let batch = batch_sweep_probed(&[point], &addrs, &mut probes)[0];
    let [(batch_collector, batch_log)] = probes;

    assert_eq!(batch.stats(), ref_stats);
    let ref_events = ref_log.into_events();
    let batch_events = batch_log.into_events();
    assert_eq!(batch_events.len(), ref_events.len());
    assert_eq!(batch_events, ref_events);

    let csv = |collector: &Collector| {
        let mut bytes = Vec::new();
        export::write_intervals_csv(&mut bytes, collector.intervals()).unwrap();
        bytes
    };
    assert_eq!(csv(&batch_collector), csv(&ref_collector));
}

/// dm/de/opt agree across kernels on a seeded random trace, run through
/// the engine's pool at 1 and 4 workers: `PolicyKind::simulate` picks the
/// session kernel, so this exercises the engine-level kernel dispatch end
/// to end.
#[test]
fn random_trace_stats_agree_across_kernels_at_jobs_1_and_4() {
    let _guard = lock_globals();
    let mut rng = SplitMix64::new(77);
    let addrs: Vec<u32> = (0..30_000).map(|_| (rng.below(8_192) as u32) * 4).collect();
    let config = CacheConfig::direct_mapped(4 * 1024, 4).unwrap();
    let policies = [
        PolicyKind::DirectMapped,
        PolicyKind::DynamicExclusion,
        PolicyKind::OptimalDm,
    ];
    let mut per_kernel = Vec::new();
    for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
        set_default_kernel(kernel);
        let serial: Vec<_> = policies
            .iter()
            .map(|p| p.simulate(config, &addrs))
            .collect();
        for jobs in [1usize, 4] {
            let pooled = execute(&policies, jobs, |p| p.simulate(config, &addrs));
            assert_eq!(pooled, serial, "kernel={kernel} jobs={jobs}");
        }
        per_kernel.push((kernel, serial));
    }
    set_default_kernel(Kernel::default());
    let (_, reference) = &per_kernel[0];
    for (kernel, stats) in &per_kernel[1..] {
        for ((policy, got), want) in policies.iter().zip(stats).zip(reference) {
            assert_eq!(got, want, "{} kernel={kernel}", policy.name());
        }
    }
}

/// Figure CSVs are byte-identical across kernel × worker-count: the full
/// driver stack (workloads → triples → table → CSV) cannot tell the kernels
/// apart at `--jobs 1` or `--jobs 4` — for the word-line triples (fig3,
/// fig5), the hierarchy sweeps (fig7, fig8, fig9: the one-pass hierarchy
/// kernel against its per-point spec simulators), the last-line triples
/// (fig11, fig12) and the multi-config triple call beside EHC (ehc).
#[test]
fn figure_csv_bytes_identical_across_kernels_and_jobs() {
    let _guard = lock_globals();
    let workloads = workloads();
    for id in [
        "fig3", "fig5", "fig7", "fig8", "fig9", "fig11", "fig12", "ehc",
    ] {
        let mut renders = Vec::new();
        for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
            for jobs in [1usize, 4] {
                set_default_kernel(kernel);
                set_default_jobs(jobs);
                let table = figures::run(id, workloads).expect("known id");
                let mut bytes = Vec::new();
                table.write_csv(&mut bytes).unwrap();
                renders.push((kernel, jobs, bytes));
            }
        }
        set_default_kernel(Kernel::default());
        set_default_jobs(0);
        let (_, _, first) = &renders[0];
        for (kernel, jobs, bytes) in &renders[1..] {
            assert_eq!(bytes, first, "{id}: kernel={kernel} jobs={jobs}");
        }
    }
}

/// `simcache --sweep` prints one line per listed size, in list order, and
/// the same bytes under every kernel: one size, four sizes with a repeat
/// (each repeat keeps its own state), and a sixteen-point ladder.
#[test]
fn simcache_sweep_stdout_is_identical_across_kernels() {
    let dir = std::env::temp_dir().join(format!("dynex_sweep_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.txt");
    // A 12 KB loop interleaved with random references over 32 KB, so the
    // ladder's sizes report different miss counts.
    let mut rng = SplitMix64::new(23);
    let text: String = (0..6_000u32)
        .map(|i| {
            let addr = if i % 3 == 0 {
                (rng.below(8_192) as u32) * 4
            } else {
                (i * 4) % 12_288
            };
            format!("F {addr:#x}\n")
        })
        .collect();
    std::fs::write(&trace_path, text).unwrap();

    let ladder = "1K,2K,4K,8K,16K,32K,64K,128K";
    for sizes in [
        "4K".to_owned(),
        "2K,8K,8K,32K".to_owned(),
        format!("{ladder},{ladder}"),
    ] {
        let renders: Vec<(&str, Vec<u8>)> = ["reference", "batch", "sweep"]
            .into_iter()
            .map(|kernel| {
                let output = std::process::Command::new(env!("CARGO_BIN_EXE_simcache"))
                    .arg(&trace_path)
                    .args(["--size", "32K", "--sweep", &sizes, "--kernel", kernel])
                    .output()
                    .expect("simcache runs");
                assert!(
                    output.status.success(),
                    "--sweep {sizes} under {kernel} failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                (kernel, output.stdout)
            })
            .collect();
        let (_, first) = &renders[0];
        let lines: Vec<&str> = std::str::from_utf8(first).unwrap().lines().collect();
        let listed: Vec<&str> = sizes.split(',').collect();
        assert_eq!(
            lines.len(),
            listed.len(),
            "--sweep {sizes}: one line per size"
        );
        for (line, size) in lines.iter().zip(&listed) {
            let label = format!("{}KB direct-mapped, 4B lines: ", size.trim_end_matches('K'));
            assert!(
                line.starts_with(&label),
                "--sweep {sizes}: {line:?} is not {size}"
            );
        }
        for (kernel, stdout) in &renders[1..] {
            assert_eq!(stdout, first, "--sweep {sizes} under {kernel}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Engine fan-out parity: a plan of points executed on the pool yields the
/// same triples under both kernels at 1 and 4 workers.
#[test]
fn pooled_triples_identical_across_kernels_at_jobs_1_and_4() {
    let workloads = workloads();
    let traces: Vec<Vec<u32>> = workloads
        .iter()
        .map(|(n, _)| workloads.instr_addrs(n))
        .collect();
    let mut points: Vec<(CacheConfig, &[u32])> = Vec::new();
    for size in SIZES {
        let config = CacheConfig::direct_mapped(size, 4).unwrap();
        points.extend(traces.iter().map(|t| (config, t.as_slice())));
    }
    let run =
        |kernel: Kernel, jobs: usize| execute(&points, jobs, |&(c, a)| run_triple(kernel, c, a));
    let baseline = run(Kernel::Reference, 1);
    for (kernel, jobs) in [
        (Kernel::Reference, 4),
        (Kernel::Batch, 1),
        (Kernel::Batch, 4),
        (Kernel::Sweep, 1),
        (Kernel::Sweep, 4),
    ] {
        assert_eq!(run(kernel, jobs), baseline, "kernel={kernel} jobs={jobs}");
    }
}

/// A `--resume` journal recorded under one kernel replays byte-identically
/// under the other two: content keys are kernel-agnostic, so a checkpointed
/// sweep never re-simulates just because the session kernel changed.
#[test]
fn resume_journal_replays_across_kernels() {
    let _guard = lock_globals();
    let dir = std::env::temp_dir().join(format!("dynex-xkernel-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");

    let build = |kernel: &str| {
        let mut b = SimulationRequest::builder();
        b.policy("de")
            .size("2K")
            .line(4)
            .profile("espresso")
            .refs(20_000)
            .jobs(1)
            .kernel(kernel)
            .resume(&journal);
        b.build().expect("valid request")
    };

    // Record under batch.
    let request = build("batch");
    api::install_session(&request).unwrap();
    let recorded = api::run(&request).unwrap();
    dynex_engine::set_global_journal(None);
    assert!(!recorded.cached, "cold journal simulates");

    // Replay under sweep and reference: pure journal replay, same bytes.
    for kernel in ["sweep", "reference"] {
        let request = build(kernel);
        api::install_session(&request).unwrap();
        let replayed = api::run(&request).unwrap();
        dynex_engine::set_global_journal(None);
        assert!(replayed.cached, "kernel={kernel} replays from the journal");
        assert_eq!(replayed.stats, recorded.stats, "kernel={kernel}");
        assert_eq!(replayed.label, recorded.label, "kernel={kernel}");
        assert_eq!(replayed.de, recorded.de, "kernel={kernel}");
        assert_eq!(replayed.key, recorded.key, "kernel={kernel}");
    }

    // And the other direction: a journal recorded under sweep replays under
    // batch with the same key and payload.
    let journal2 = dir.join("journal2.jsonl");
    let mut b = SimulationRequest::builder();
    b.policy("de")
        .size("2K")
        .line(4)
        .profile("espresso")
        .refs(20_000)
        .jobs(1)
        .kernel("sweep")
        .resume(&journal2);
    let request = b.build().unwrap();
    api::install_session(&request).unwrap();
    let swept = api::run(&request).unwrap();
    dynex_engine::set_global_journal(None);
    assert!(!swept.cached);
    assert_eq!(swept.stats, recorded.stats, "sweep simulates identically");
    let request = build("batch");
    // Point the batch request at the sweep-recorded journal.
    let mut request = request;
    request.resume = Some(journal2);
    api::install_session(&request).unwrap();
    let replayed = api::run(&request).unwrap();
    dynex_engine::set_global_journal(None);
    assert!(
        replayed.cached,
        "sweep-recorded journal replays under batch"
    );
    assert_eq!(replayed.stats, recorded.stats);

    set_default_kernel(Kernel::default());
    set_default_jobs(0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Decode/chunking edge cases agree across all three kernels: the empty
/// trace, a trace shorter than one decode chunk, and a loop whose
/// iterations straddle the chunk boundary.
#[test]
fn decode_edge_cases_agree_across_all_kernels() {
    let empty: Vec<u32> = Vec::new();
    let short: Vec<u32> = (0..17).map(|i| i * 4).collect();
    let mut straddle: Vec<u32> = Vec::new();
    for _ in 0..3 {
        straddle.extend((0..(CHUNK_LEN as u32 + 37)).map(|i| (i % 600) * 4));
    }
    let config = CacheConfig::direct_mapped(1024, 4).unwrap();
    for (tag, addrs) in [
        ("empty", &empty),
        ("short", &short),
        ("straddle", &straddle),
    ] {
        for policy in [
            PolicyKind::DirectMapped,
            PolicyKind::DynamicExclusion,
            PolicyKind::OptimalDm,
        ] {
            let reference = policy
                .simulate_kernel(Kernel::Reference, config, addrs)
                .unwrap();
            assert_eq!(reference.accesses(), addrs.len() as u64, "{tag}");
            for kernel in [Kernel::Batch, Kernel::Sweep] {
                assert_eq!(
                    policy.simulate_kernel(kernel, config, addrs).unwrap(),
                    reference,
                    "{tag}: {} kernel={kernel}",
                    policy.name()
                );
            }
        }
        let reference_triple = run_triple(Kernel::Reference, config, addrs);
        for kernel in [Kernel::Batch, Kernel::Sweep] {
            assert_eq!(
                run_triple(kernel, config, addrs),
                reference_triple,
                "{tag}: triple kernel={kernel}"
            );
        }
    }
}

/// A sweep mixing 4-byte and 16-byte lines, with dm, de, opt and the
/// last-line variants of de and opt at each line size, over a trace whose
/// length is not a multiple of `CHUNK_LEN`: every line size is decoded
/// chunk by chunk, the partial last chunk included, and each point must
/// reproduce its reference simulator — statistics, DE counters and probe
/// event stream.
#[test]
fn mixed_line_size_sweep_matches_reference_at_a_partial_last_chunk() {
    let addrs: Vec<u32> = AppParams::new(11)
        .build()
        .trace(3 * CHUNK_LEN + 1_234)
        .iter()
        .map(|a| a.addr())
        .collect();
    assert!(addrs.len() > CHUNK_LEN && !addrs.len().is_multiple_of(CHUNK_LEN));

    // Line sizes interleaved, so the points of one line size are not
    // adjacent in the plan.
    let mut points = Vec::new();
    for (size, line) in [(1024, 4), (2048, 16), (8 * 1024, 4), (8 * 1024, 16)] {
        let config = CacheConfig::direct_mapped(size, line).unwrap();
        for policy in [
            SweepPolicy::DirectMapped,
            SweepPolicy::DynamicExclusion,
            SweepPolicy::Optimal,
            SweepPolicy::DeLastLine,
            SweepPolicy::OptimalLastLine,
        ] {
            points.push(SweepPoint::new(config, policy));
        }
    }
    let mut logs: Vec<EventLog> = points.iter().map(|_| EventLog::new()).collect();
    let swept = batch_sweep_probed(&points, &addrs, &mut logs);

    for ((point, got), log) in points.iter().zip(&swept).zip(&logs) {
        let config = point.config;
        let what = format!("{} @ {config}", point.policy.name());
        let refs = addrs.iter().copied();
        let (expected, ref_events) = match point.policy {
            SweepPolicy::DirectMapped => {
                let mut cache = DirectMapped::with_probe(config, EventLog::new());
                let stats = run_addrs(&mut cache, refs);
                (
                    SweepPointResult::Dm(stats),
                    cache.into_probe().into_events(),
                )
            }
            SweepPolicy::DynamicExclusion => {
                let mut cache = DeCache::with_probe(config, EventLog::new());
                let stats = run_addrs(&mut cache, refs);
                let de = cache.de_stats();
                let result = BatchDeResult {
                    stats,
                    loads: de.loads,
                    bypasses: de.bypasses,
                };
                (
                    SweepPointResult::De(result),
                    cache.into_probe().into_events(),
                )
            }
            SweepPolicy::Optimal => (
                SweepPointResult::Opt(OptimalDirectMapped::simulate(config, refs)),
                Vec::new(),
            ),
            SweepPolicy::DeLastLine => {
                let mut cache = LastLineDeCache::with_store_and_probe(
                    config,
                    PerfectStore::new(),
                    EventLog::new(),
                );
                let stats = run_addrs(&mut cache, refs);
                let de = cache.de_stats();
                let result = BatchDeResult {
                    stats,
                    loads: de.loads,
                    bypasses: de.bypasses,
                };
                (
                    SweepPointResult::De(result),
                    cache.into_probe().into_events(),
                )
            }
            SweepPolicy::OptimalLastLine => (
                SweepPointResult::Opt(OptimalDirectMapped::simulate_with_lastline(config, refs)),
                Vec::new(),
            ),
        };
        assert_eq!(*got, expected, "{what}");
        assert_eq!(log.events(), &ref_events[..], "{what}");
    }
}

/// The whole-trace oracles on a sparse line space: a phased-application
/// trace whose stack sits near `0x7fff_f000`, so at 4-byte lines its line
/// addresses reach past 2^26 while it touches only a few thousand lines.
/// Every fast opt path (the point swept alone, inside the fused triple, and
/// inside a sweep sharing the oracle per line size) must equal the
/// reference `OptimalDirectMapped`, and the EHC batch kernel must equal its
/// trait-driven reference.
#[test]
fn oracles_agree_on_a_sparse_address_space() {
    let addrs: Vec<u32> = AppParams::new(7)
        .build()
        .trace(40_000)
        .iter()
        .map(|a| a.addr())
        .collect();
    let top_line = addrs.iter().map(|&a| a >> 2).max().unwrap();
    assert!(top_line >= 1 << 26, "stack lines {top_line:#x} below 2^26");

    let configs: Vec<CacheConfig> = [4u32, 64]
        .into_iter()
        .flat_map(|line| {
            [1024u32, 8 * 1024, 32 * 1024]
                .map(|size| CacheConfig::direct_mapped(size, line).unwrap())
        })
        .collect();
    let points: Vec<SweepPoint> = configs
        .iter()
        .map(|&config| SweepPoint::new(config, SweepPolicy::Optimal))
        .collect();
    let swept = batch_sweep(&points, &addrs);
    for (&config, swept) in configs.iter().zip(&swept) {
        let reference = OptimalDirectMapped::simulate(config, addrs.iter().copied());
        let alone = batch_sweep(&[SweepPoint::new(config, SweepPolicy::Optimal)], &addrs);
        assert_eq!(alone[0].stats(), reference, "batch opt @ {config}");
        assert_eq!(
            run_triple(Kernel::Batch, config, &addrs).opt,
            reference,
            "triple opt @ {config}"
        );
        assert_eq!(
            *swept,
            SweepPointResult::Opt(reference),
            "sweep opt @ {config}"
        );

        let mut ehc = EhcPolicy::new(config, &addrs);
        assert_eq!(
            batch_ehc(config, &addrs),
            simulate_policy(config, &addrs, &mut ehc),
            "ehc @ {config}"
        );
    }
}

/// An all-filtering kind filter (instructions-only over a pure-data trace)
/// leaves zero references, and every kernel agrees on the resulting
/// all-zero statistics.
#[test]
fn all_filtering_kind_filter_agrees_across_kernels() {
    let packed: Vec<PackedAccess> = (0..100)
        .map(|i| PackedAccess::pack(Access::read(i * 4)))
        .collect();
    let addrs = decode_addrs(&packed, KindFilter::Instructions);
    assert!(addrs.is_empty(), "the filter drops every reference");
    let config = CacheConfig::direct_mapped(1024, 4).unwrap();
    for policy in [
        PolicyKind::DirectMapped,
        PolicyKind::DynamicExclusion,
        PolicyKind::OptimalDm,
    ] {
        for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
            let stats = policy.simulate_kernel(kernel, config, &addrs).unwrap();
            assert_eq!(stats.accesses(), 0, "{} kernel={kernel}", policy.name());
            assert_eq!(stats.misses(), 0, "{} kernel={kernel}", policy.name());
        }
    }
}

/// The fused triple agrees with three independent reference runs on data
/// streams too (the instruction/data split is a different reference mix).
#[test]
fn fused_triple_matches_on_data_streams() {
    let workloads = workloads();
    let names: Vec<String> = workloads.iter().map(|(n, _)| n.to_owned()).collect();
    let config = CacheConfig::direct_mapped(8 * 1024, 4).unwrap();
    for name in &names {
        let addrs = workloads.data_addrs(name);
        assert_eq!(
            run_triple(Kernel::Reference, config, &addrs),
            run_triple(Kernel::Batch, config, &addrs),
            "{name}"
        );
    }
}

/// The policy-matrix leg of the wall: every member of the policy zoo, at
/// its own geometry and at 4 B and 16 B lines, answers the full request
/// path (`api::execute`: label, statistics, DE counters, content key)
/// bit-identically on every kernel. The coalesced `execute_many` path
/// answers every member in one call (the sweepable ones sharing one
/// traversal, the rest run alone inside it) exactly as per-request
/// `execute` does. This is the CI policy-matrix
/// job's anchor test.
#[test]
fn policy_matrix_is_bit_identical_on_every_supporting_kernel() {
    let workloads = workloads();
    let names: Vec<String> = workloads.iter().map(|(n, _)| n.to_owned()).collect();
    for name in names.iter().take(4) {
        let trace = api::LoadedTrace {
            addrs: workloads.instr_addrs(name),
            skipped: 0,
        };
        for (size, line) in [("1K", 4), ("8K", 4), ("1K", 16), ("8K", 16)] {
            let request = |policy: PolicyKind, kernel: Kernel| {
                let mut b = SimulationRequest::builder();
                b.policy(policy.name())
                    .size(size)
                    .line(line)
                    .kernel(kernel.name())
                    .jobs(1);
                b.build().expect("every zoo member builds")
            };
            for policy in PolicyKind::ALL {
                let reference_request = request(policy, Kernel::Reference);
                let config = reference_request.cache_config().unwrap();
                assert_eq!(config.associativity(), policy.associativity());
                let reference = api::execute(&reference_request, &trace)
                    .expect("the reference kernel runs every policy");
                assert_eq!(reference.label, policy.label(config));
                assert_eq!(
                    reference.de.is_some(),
                    policy == PolicyKind::DynamicExclusion,
                    "{name}: only de reports exclusion counters"
                );
                for kernel in [Kernel::Batch, Kernel::Sweep] {
                    let result = api::execute(&request(policy, kernel), &trace);
                    assert_eq!(
                        result.unwrap(),
                        reference,
                        "{name}: {} @ {size}/{line}B kernel={kernel}",
                        policy.name()
                    );
                }
            }
            let every: Vec<SimulationRequest> = PolicyKind::ALL
                .into_iter()
                .map(|policy| request(policy, Kernel::Batch))
                .collect();
            let batch: Vec<&SimulationRequest> = every.iter().collect();
            let fused = api::execute_many(&batch, &trace).unwrap();
            for (request, got) in every.iter().zip(&fused) {
                assert_eq!(
                    *got,
                    api::execute(request, &trace).unwrap(),
                    "{name}: {} @ {size}/{line}B via execute_many",
                    request.policy.name()
                );
            }
        }
    }
}

/// The traffic-accounting policies agree on their bandwidth counters across
/// kernels, not just on hit/miss statistics — `CacheStats` equality is
/// derived over all five counters, so this pins fills/writebacks/probes too.
#[test]
fn traffic_counters_are_bit_identical_across_kernels() {
    let workloads = workloads();
    let (name, _) = workloads.iter().next().expect("built-in profiles exist");
    let addrs = workloads.instr_addrs(name);
    let config = CacheConfig::direct_mapped(2 * 1024, 4).unwrap();
    for policy in [PolicyKind::ExpectedHitCount, PolicyKind::BandwidthCost] {
        let reference = policy
            .simulate_kernel(Kernel::Reference, config, &addrs)
            .unwrap();
        let batch = policy
            .simulate_kernel(Kernel::Batch, config, &addrs)
            .unwrap();
        assert_eq!(batch, reference, "{}", policy.name());
        assert_eq!(batch.probes(), addrs.len() as u64, "{}", policy.name());
        assert!(batch.fills() <= batch.misses(), "{}", policy.name());
    }
}
