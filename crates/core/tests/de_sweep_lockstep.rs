//! The sweep kernel's `de` and `de-lastline` points in lockstep with the
//! reference `DeCache` and `LastLineDeCache`: same statistics, same
//! load/bypass split and the same probe event stream, at 1, 4 and 32 KB
//! with 4 B and 16 B lines, over seeded random traces and two profile
//! streams.
//!
//! The sweep kernel serves a hit without reading the sticky bit or the
//! hit-last bitmap, which is legal only because every hit row of Figure 1
//! is the same. The test therefore also checks that the traces reach all
//! eight `(hit, sticky, hit_last)` rows, a hit on a non-sticky set among
//! them, so the hit-first step is compared on every input it skips.

use dynex::{DeCache, DeStats, HitLastStore, LastLineDeCache, PerfectStore};
use dynex_cache::{
    batch_sweep_probed, de_fsm_index, run_addrs, CacheConfig, CacheSim, CacheStats, SplitMix64,
    SweepPoint, SweepPolicy,
};
use dynex_obs::{Event, EventLog};

const SIZES: [u32; 3] = [1024, 4 * 1024, 32 * 1024];
const LINES: [u32; 2] = [4, 16];

/// Uniformly random words over `span` words.
fn random_words(seed: u64, len: usize, span: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.below(span) as u32 * 4).collect()
}

/// Instruction-like fetches: sequential runs of 1 to 12 words from random
/// starting words, so runs cross 16 B lines.
fn random_fetches(seed: u64, len: usize, span: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut addrs = Vec::with_capacity(len);
    while addrs.len() < len {
        let start = rng.below(span) as u32;
        let run = 1 + rng.below(12) as u32;
        addrs.extend((start..start + run).map(|w| w * 4).take(len - addrs.len()));
    }
    addrs
}

/// Two profile streams: gcc's instruction fetches and doduc's data
/// references.
fn profile_streams() -> Vec<Vec<u32>> {
    let stream = |name: &str, instructions: bool| {
        let profile = dynex_workload::spec::profile(name).expect("a paper profile");
        let trace = profile.trace(40_000);
        if instructions {
            dynex_trace::filter::instructions(trace.iter())
                .map(|a| a.addr())
                .collect()
        } else {
            dynex_trace::filter::data(trace.iter())
                .map(|a| a.addr())
                .collect()
        }
    };
    vec![stream("gcc", true), stream("doduc", false)]
}

fn traces() -> Vec<Vec<u32>> {
    let mut traces = vec![
        random_words(41, 20_000, 600),
        random_words(42, 20_000, 20_000),
        random_fetches(43, 20_000, 4_000),
    ];
    traces.extend(profile_streams());
    traces
}

/// `policy` at `config` as a one-point sweep: its statistics, DE counters
/// and events.
fn swept(
    policy: SweepPolicy,
    config: CacheConfig,
    addrs: &[u32],
) -> (CacheStats, DeStats, Vec<Event>) {
    let mut logs = [EventLog::new()];
    let (stats, de) = batch_sweep_probed(&[SweepPoint::new(config, policy)], addrs, &mut logs)[0];
    let [log] = logs;
    let de = de.expect("a DE point reports DE counters");
    (stats, de, log.into_events())
}

/// Runs the reference `DeCache` over `addrs`, marking in `rows` the Figure 1
/// row each reference takes. The inputs are read before the access: the
/// hit from residency, the hit-last bit from the store (read on every
/// reference, as the cache does), and the sticky bit from the events, since
/// a reference flips sticky to true exactly when it found it clear.
fn reference_de(
    config: CacheConfig,
    addrs: &[u32],
    rows: &mut [u64; 8],
) -> (CacheStats, DeStats, Vec<Event>) {
    let offset_bits = config.geometry().offset_bits();
    let mut cache = DeCache::with_probe(config, EventLog::new());
    for &addr in addrs {
        let hit = cache.contains(addr);
        let hit_last = cache.store().get(addr >> offset_bits);
        let before = cache.probe().events().len();
        cache.access(addr);
        let was_sticky = !cache.probe().events()[before..]
            .iter()
            .any(|e| matches!(e, Event::StickyFlip { sticky: true, .. }));
        rows[de_fsm_index(hit, was_sticky, hit_last)] += 1;
    }
    let stats = cache.stats();
    let de = cache.de_stats();
    (stats, de, cache.into_probe().into_events())
}

#[test]
fn de_points_replay_the_reference_cache_event_for_event() {
    let mut rows = [0u64; 8];
    for (t, addrs) in traces().iter().enumerate() {
        for size in SIZES {
            for line in LINES {
                let config = CacheConfig::direct_mapped(size, line).unwrap();
                let (stats, de, events) = reference_de(config, addrs, &mut rows);
                let (sweep, sweep_de, sweep_events) =
                    swept(SweepPolicy::DynamicExclusion, config, addrs);
                assert_eq!(sweep, stats, "trace {t} @ {config}");
                assert_eq!(sweep_de, de, "trace {t} @ {config}");
                assert_eq!(sweep_events, events, "trace {t} @ {config}");
            }
        }
    }
    for (index, &count) in rows.iter().enumerate() {
        // Rows 0b100 and 0b101 are the hits on a non-sticky set.
        assert!(
            count > 0,
            "row {index:03b} (hit, sticky, hit_last) never reached"
        );
    }
}

#[test]
fn de_lastline_points_replay_the_reference_cache_event_for_event() {
    for (t, addrs) in traces().iter().enumerate() {
        for size in SIZES {
            for line in LINES {
                let config = CacheConfig::direct_mapped(size, line).unwrap();
                let mut reference = LastLineDeCache::with_store_and_probe(
                    config,
                    PerfectStore::new(),
                    EventLog::new(),
                );
                let stats = run_addrs(&mut reference, addrs.iter().copied());
                let de = reference.de_stats();
                let events = reference.into_probe().into_events();
                let (sweep, sweep_de, sweep_events) = swept(SweepPolicy::DeLastLine, config, addrs);
                assert_eq!(sweep, stats, "trace {t} @ {config}");
                assert_eq!(sweep_de, de, "trace {t} @ {config}");
                assert_eq!(sweep_events, events, "trace {t} @ {config}");
            }
        }
    }
}
