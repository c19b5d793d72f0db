//! Integration: the observability layer never perturbs simulation, and the
//! exported JSONL/JSON/CSV artifacts round-trip back to the statistics the
//! simulators report.
//!
//! Three layers are covered:
//!
//! 1. **Differential** — every simulator produces byte-identical
//!    [`CacheStats`] with and without instrumentation, and the emitted
//!    events obey the structural invariants
//!    (`accesses == hits + misses == |Access events|`,
//!    `evictions <= misses`, DE: one exclusion decision per miss).
//! 2. **Library round-trip** — events/metrics written through
//!    [`dynex_obs::export`] parse back with [`dynex_obs::json`] and
//!    cross-check against the run's statistics.
//! 3. **CLI round-trip** — the `simcache` binary with `--events-out`,
//!    `--metrics-out`, `--intervals-out`, `--interval` emits well-formed
//!    files that agree with an in-process run of the same configuration.

use dynex::DeCache;
use dynex_cache::{run_addrs, CacheConfig, CacheStats, DirectMapped, SplitMix64, StreamBuffer};
use dynex_obs::json::{self, Json};
use dynex_obs::{export, Collector, CountingProbe, Event, EventCounts, EventLog, Probe};

/// A mixed workload: loop phases (the paper's bread and butter) with a
/// random-access tail, enough to exercise hits, cold misses, conflicts,
/// bypasses, and evictions.
fn workload() -> Vec<u32> {
    let mut addrs = Vec::new();
    // Phase 1: within-loop conflict (a b)^50 on one set.
    for i in 0..100u32 {
        addrs.push(if i % 2 == 0 { 0 } else { 256 });
    }
    // Phase 2: a sequential sweep larger than the small test caches.
    for i in 0..200u32 {
        addrs.push(i * 4);
    }
    // Phase 3: random accesses over a window.
    let mut rng = SplitMix64::new(42);
    for _ in 0..2000 {
        addrs.push((rng.below(512) as u32) * 4);
    }
    addrs
}

/// `accesses == hits + misses == |Access events|` and `evictions <= misses`.
fn assert_counts_match(counts: EventCounts, stats: CacheStats) {
    assert_eq!(counts.accesses, stats.accesses());
    assert_eq!(counts.hits, stats.hits());
    assert_eq!(counts.misses, stats.misses());
    assert_eq!(counts.hits + counts.misses, counts.accesses);
    assert!(
        counts.evictions <= counts.misses,
        "more evictions than misses"
    );
}

#[test]
fn native_probes_preserve_stats_and_event_invariants() {
    let config = CacheConfig::direct_mapped(256, 4).unwrap();
    let addrs = workload();

    let mut bare = DirectMapped::new(config);
    let mut probed = DirectMapped::with_probe(config, CountingProbe::new());
    let bare_stats = run_addrs(&mut bare, addrs.iter().copied());
    let probed_stats = run_addrs(&mut probed, addrs.iter().copied());
    assert_eq!(bare_stats, probed_stats);
    assert_counts_match(probed.probe().counts(), probed_stats);

    let mut bare = DeCache::new(config);
    let mut probed = DeCache::with_probe(config, CountingProbe::new());
    let bare_stats = run_addrs(&mut bare, addrs.iter().copied());
    let probed_stats = run_addrs(&mut probed, addrs.iter().copied());
    assert_eq!(bare_stats, probed_stats);
    let counts = probed.probe().counts();
    assert_counts_match(counts, probed_stats);
    // Dynamic exclusion decides load-vs-bypass on every miss.
    assert_eq!(
        counts.exclusion_loads + counts.exclusion_bypasses,
        probed_stats.misses()
    );
    assert_eq!(counts.exclusion_loads, probed.de_stats().loads);
    assert_eq!(counts.exclusion_bypasses, probed.de_stats().bypasses);
    assert!(
        counts.evictions <= counts.exclusion_loads,
        "only loads can evict"
    );

    // The stream buffer is the one organization where evictions may exceed
    // misses: a reference served by the buffer is a *hit* that still
    // installs the line into the cache, displacing a valid block. The exact
    // relation is evictions <= misses + buffer-promotion hits.
    let mut bare = StreamBuffer::new(config, 4);
    let mut probed = StreamBuffer::with_probe(config, 4, EventLog::new());
    let bare_stats = run_addrs(&mut bare, addrs.iter().copied());
    let probed_stats = run_addrs(&mut probed, addrs.iter().copied());
    assert_eq!(bare_stats, probed_stats);
    let log = probed.into_probe();
    let mut promotions = 0u64;
    let mut evictions = 0u64;
    for event in log.events() {
        match event {
            Event::Access {
                cause: dynex_obs::Cause::StreamBuffer,
                ..
            } => promotions += 1,
            Event::Eviction { .. } => evictions += 1,
            _ => {}
        }
    }
    assert!(
        promotions > 0,
        "sequential phase must hit the stream buffer"
    );
    assert!(evictions <= probed_stats.misses() + promotions);
}

#[test]
fn events_jsonl_round_trips_against_stats() {
    let config = CacheConfig::direct_mapped(256, 4).unwrap();
    let mut cache = DeCache::with_probe(config, EventLog::new());
    let stats = run_addrs(&mut cache, workload());
    let log = cache.into_probe();

    let mut buf = Vec::new();
    export::write_events_jsonl(&mut buf, log.events()).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let (mut accesses, mut hits, mut misses, mut evictions, mut decisions) = (0u64, 0, 0, 0, 0);
    for line in text.lines() {
        let parsed = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        match parsed.get("type").and_then(Json::as_str) {
            Some("access") => {
                accesses += 1;
                match parsed.get("outcome").and_then(Json::as_str) {
                    Some("hit") => hits += 1,
                    Some("miss") => misses += 1,
                    other => panic!("bad outcome {other:?}"),
                }
            }
            Some("eviction") => evictions += 1,
            Some("exclusion") => decisions += 1,
            Some("sticky-flip") | Some("hit-last") => {}
            other => panic!("unknown event type {other:?}"),
        }
    }
    assert_eq!(accesses, stats.accesses());
    assert_eq!(hits, stats.hits());
    assert_eq!(misses, stats.misses());
    assert_eq!(decisions, stats.misses());
    assert!(evictions <= misses);
}

#[test]
fn metrics_json_round_trips_against_stats() {
    let config = CacheConfig::direct_mapped(256, 4).unwrap();
    let mut cache = DeCache::with_probe(config, Collector::new(100));
    let stats = run_addrs(&mut cache, workload());
    let collector = cache.into_probe();

    let doc = export::metrics_json(&collector.registry(), Some(collector.intervals()));
    let parsed = json::parse(&doc).unwrap();
    let counter = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("accesses"), stats.accesses());
    assert_eq!(counter("hits"), stats.hits());
    assert_eq!(counter("misses"), stats.misses());
    assert_eq!(
        counter("exclusion-loads") + counter("exclusion-bypasses"),
        stats.misses()
    );

    // Completed interval windows partition a prefix of the access stream.
    assert_eq!(
        parsed.get("interval_window").and_then(Json::as_u64),
        Some(100)
    );
    let intervals = parsed.get("intervals").and_then(Json::as_array).unwrap();
    assert_eq!(intervals.len() as u64, stats.accesses() / 100);
    let (mut acc_sum, mut miss_sum) = (0u64, 0u64);
    for point in intervals {
        acc_sum += point.get("accesses").and_then(Json::as_u64).unwrap();
        miss_sum += point.get("misses").and_then(Json::as_u64).unwrap();
    }
    assert_eq!(acc_sum, stats.accesses() / 100 * 100);
    assert!(miss_sum <= stats.misses());

    // The histograms section must carry the reuse-distance histogram.
    let reuse = parsed
        .get("histograms")
        .and_then(|h| h.get("reuse-distance"))
        .expect("reuse-distance histogram exported");
    assert!(reuse.get("counts").and_then(Json::as_array).is_some());
}

#[test]
fn probes_compose_as_tuples() {
    let config = CacheConfig::direct_mapped(256, 4).unwrap();
    let mut cache = DeCache::with_probe(config, (Collector::new(100), CountingProbe::new()));
    let stats = run_addrs(&mut cache, workload());
    let (collector, counting) = cache.into_probe();
    assert_eq!(collector.registry().counter("accesses"), stats.accesses());
    assert_eq!(counting.counts().accesses, stats.accesses());
    assert_eq!(
        collector.registry().counter("evictions"),
        counting.counts().evictions
    );
}

#[test]
fn simcache_cli_writes_parseable_outputs() {
    // Build a small text trace on disk.
    let dir = std::env::temp_dir().join("dynex_obs_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.txt");
    let mut text = String::new();
    for addr in workload() {
        text.push_str(&format!("F {addr:#x}\n"));
    }
    std::fs::write(&trace_path, text).unwrap();

    let events_path = dir.join("events.jsonl");
    let metrics_path = dir.join("metrics.json");
    let intervals_path = dir.join("intervals.csv");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_simcache"))
        .arg(&trace_path)
        .args([
            "--size",
            "256",
            "--line",
            "4",
            "--org",
            "de",
            "--interval",
            "1000",
        ])
        .arg("--events-out")
        .arg(&events_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--intervals-out")
        .arg(&intervals_path)
        .output()
        .expect("simcache runs");
    assert!(
        output.status.success(),
        "simcache failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The expected statistics, from an identical in-process run.
    let config = CacheConfig::direct_mapped(256, 4).unwrap();
    let mut reference = DeCache::new(config);
    let stats = run_addrs(&mut reference, workload());

    // Events JSONL: every line parses; Access events match the stats.
    let events_text = std::fs::read_to_string(&events_path).unwrap();
    let mut accesses = 0u64;
    let mut misses = 0u64;
    for line in events_text.lines() {
        let parsed = json::parse(line).unwrap();
        if parsed.get("type").and_then(Json::as_str) == Some("access") {
            accesses += 1;
            if parsed.get("outcome").and_then(Json::as_str) == Some("miss") {
                misses += 1;
            }
        }
    }
    assert_eq!(accesses, stats.accesses());
    assert_eq!(misses, stats.misses());

    // Metrics JSON: counters agree with the stats.
    let metrics_text = std::fs::read_to_string(&metrics_path).unwrap();
    let metrics = json::parse(metrics_text.trim()).unwrap();
    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(
        counters.get("accesses").and_then(Json::as_u64),
        Some(stats.accesses())
    );
    assert_eq!(
        counters.get("misses").and_then(Json::as_u64),
        Some(stats.misses())
    );
    assert_eq!(
        metrics.get("interval_window").and_then(Json::as_u64),
        Some(1000)
    );

    // Intervals CSV: header plus one row per window (incl. trailing
    // partial); access column sums to the trace length.
    let csv_text = std::fs::read_to_string(&intervals_path).unwrap();
    let mut lines = csv_text.lines();
    assert_eq!(
        lines.next(),
        Some("interval,start,accesses,misses,miss_rate")
    );
    let mut acc_sum = 0u64;
    for row in lines {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 5, "bad CSV row {row:?}");
        acc_sum += fields[2].parse::<u64>().unwrap();
    }
    assert_eq!(acc_sum, stats.accesses());

    // The policy × kernel matrix, at 16 B lines so the last-line buffer
    // matters: every policy prints the same plain stdout under every
    // kernel, the probed policies write the same three files under every
    // kernel, and the observed stdout equals the plain run's.
    let simcache = |args: &[&str]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_simcache"))
            .arg(&trace_path)
            .args(["--size", "256", "--line", "16"])
            .args(args)
            .output()
            .expect("simcache runs");
        assert!(
            output.status.success(),
            "simcache {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output
    };
    let files = ["events.jsonl", "metrics.json", "intervals.csv"];
    for policy in [
        "dm",
        "de",
        "de-lastline",
        "2way",
        "4way",
        "victim",
        "stream",
        "opt",
        "opt-lastline",
        "ehc",
        "bwcost",
    ] {
        let probed = !matches!(policy, "opt" | "opt-lastline" | "ehc" | "bwcost");
        let mut reference_stdout: Option<Vec<u8>> = None;
        let mut reference_files: Option<Vec<Vec<u8>>> = None;
        for kernel in ["reference", "batch", "sweep"] {
            let plain = simcache(&["--policy", policy, "--kernel", kernel]);
            match &reference_stdout {
                None => reference_stdout = Some(plain.stdout.clone()),
                Some(expected) => assert!(
                    *expected == plain.stdout,
                    "{policy} under {kernel}: plain stdout differs from reference"
                ),
            }
            let out = dir.join(format!("{policy}-{kernel}"));
            std::fs::create_dir_all(&out).unwrap();
            let paths = files.map(|f| out.join(f).to_str().unwrap().to_owned());
            let observed = simcache(&[
                "--policy",
                policy,
                "--kernel",
                kernel,
                "--interval",
                "500",
                "--events-out",
                &paths[0],
                "--metrics-out",
                &paths[1],
                "--intervals-out",
                &paths[2],
            ]);
            let case = format!("{policy} under {kernel}");
            assert_eq!(observed.stdout, plain.stdout, "{case}: stdout");
            let stderr = String::from_utf8_lossy(&observed.stderr);
            assert_eq!(stderr.contains("no probed hot path"), !probed, "{case}");
            if !probed {
                for path in &paths {
                    assert!(!std::path::Path::new(path).exists(), "{case}: wrote {path}");
                }
                continue;
            }
            let written: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
            let access_events = String::from_utf8_lossy(&written[0])
                .lines()
                .filter(|line| line.contains(r#""type":"access""#))
                .count();
            assert_eq!(
                access_events,
                workload().len(),
                "{case}: one access event per reference"
            );
            match &reference_files {
                None => reference_files = Some(written),
                Some(expected) => {
                    assert!(*expected == written, "{case}: files differ from reference")
                }
            }
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simcache_trace_out_changes_no_output_byte() {
    // A full --trace-out span stream is a side channel: stdout stays the
    // untraced run's byte for byte, and the stream is parseable JSONL that
    // reaches down to the kernel's simulate stage.
    let dir = std::env::temp_dir().join(format!("dynex_trace_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.txt");
    let text: String = workload()
        .into_iter()
        .map(|addr| format!("F {addr:#x}\n"))
        .collect();
    std::fs::write(&trace_path, text).unwrap();
    let spans_path = dir.join("spans.jsonl");
    let simcache = |extra: &[&std::ffi::OsStr]| {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_simcache"))
            .arg(&trace_path)
            .args(["--size", "1K", "--line", "4", "--policy", "de"])
            .args(extra)
            .output()
            .expect("simcache runs");
        assert!(
            output.status.success(),
            "simcache {extra:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output.stdout
    };

    let untraced = simcache(&[]);
    let traced = simcache(&["--trace-out".as_ref(), spans_path.as_os_str()]);
    assert!(!untraced.is_empty());
    assert_eq!(traced, untraced, "--trace-out changed stdout");

    let spans = std::fs::read_to_string(&spans_path).unwrap();
    let mut stages = Vec::new();
    for line in spans.lines() {
        let span = json::parse(line).unwrap_or_else(|e| panic!("bad span line {line:?}: {e:?}"));
        stages.push(span.get("stage").and_then(Json::as_str).map(str::to_owned));
    }
    assert!(!stages.is_empty(), "--trace-out wrote no spans");
    assert!(
        stages
            .iter()
            .any(|s| s.as_deref() == Some("kernel.simulate")),
        "no kernel.simulate span in {stages:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn noop_probe_accepts_every_event_kind() {
    // The default probe is exercised implicitly everywhere; this pins the
    // API shape so `emit` stays callable with each variant.
    let mut noop = dynex_obs::NoopProbe;
    noop.emit(Event::StickyFlip {
        set: 0,
        sticky: true,
    });
    noop.emit(Event::HitLastUpdate {
        line: 1,
        hit_last: false,
    });
    noop.emit(Event::ExclusionDecision {
        set: 0,
        line: 1,
        loaded: true,
    });
    noop.emit(Event::Eviction {
        set: 0,
        victim: 1,
        replacement: 2,
    });
}
