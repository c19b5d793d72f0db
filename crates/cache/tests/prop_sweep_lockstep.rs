//! Property tests: every point of a multi-configuration sweep stays in
//! lockstep with that point swept alone — statistics and probe event
//! streams both — for arbitrary address streams and config vectors.

// Gated: requires the `proptest` feature (and the proptest dev-dependency,
// unavailable in hermetic builds) to compile.
#![cfg(feature = "proptest")]

use dynex_cache::{
    batch_sweep, batch_sweep_probed, run_addrs, CacheConfig, DirectMapped, SweepPoint,
    SweepPointResult, SweepPolicy,
};
use dynex_obs::EventLog;
use proptest::prelude::*;

/// Word-aligned addresses in a smallish region so conflicts actually happen.
fn arb_addrs() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u32..2048).prop_map(|w| w * 4), 0..500)
}

fn arb_pow2(lo: u32, hi: u32) -> impl Strategy<Value = u32> {
    (lo.trailing_zeros()..=hi.trailing_zeros()).prop_map(|b| 1 << b)
}

fn arb_policy() -> impl Strategy<Value = SweepPolicy> {
    prop_oneof![
        Just(SweepPolicy::DirectMapped),
        Just(SweepPolicy::DynamicExclusion),
        Just(SweepPolicy::Optimal),
    ]
}

/// Random sweep plans: 1..8 points over random geometries and policies.
/// Duplicate points arise naturally from the small geometry space (and the
/// lockstep laws must hold for them — every point keeps independent state);
/// length-1 vectors cover the degenerate single-config sweep.
fn arb_points() -> impl Strategy<Value = Vec<SweepPoint>> {
    proptest::collection::vec(
        (arb_pow2(64, 4096), arb_pow2(4, 32), arb_policy()).prop_map(|(size, line, policy)| {
            SweepPoint::new(CacheConfig::direct_mapped(size, line).unwrap(), policy)
        }),
        1..8,
    )
}

/// The result of one sweep point swept alone.
fn single_point(point: &SweepPoint, addrs: &[u32]) -> SweepPointResult {
    batch_sweep(&[*point], addrs)[0]
}

proptest! {
    /// `batch_sweep` is bit-identical per point to that point swept alone
    /// (which the workspace differential wall in turn pins to the reference
    /// simulators) for any plan, duplicates included.
    #[test]
    fn sweep_matches_single_point_kernels(addrs in arb_addrs(), points in arb_points()) {
        let swept = batch_sweep(&points, &addrs);
        prop_assert_eq!(swept.len(), points.len());
        for (point, got) in points.iter().zip(&swept) {
            prop_assert_eq!(got, &single_point(point, &addrs));
        }
    }

    /// Direct-mapped sweep points also agree with the per-reference spec
    /// simulator directly, closing the loop inside this crate.
    #[test]
    fn dm_sweep_points_match_the_reference_simulator(
        addrs in arb_addrs(),
        size in arb_pow2(64, 4096),
        line in arb_pow2(4, 32),
    ) {
        let config = CacheConfig::direct_mapped(size, line).unwrap();
        let point = SweepPoint::new(config, SweepPolicy::DirectMapped);
        let swept = batch_sweep(&[point], &addrs);
        let mut reference = DirectMapped::new(config);
        let stats = run_addrs(&mut reference, addrs.iter().copied());
        prop_assert_eq!(swept[0].stats(), stats);
    }

    /// The probed sweep replays each point's event stream swept alone
    /// exactly — same events, same order, per point.
    #[test]
    fn probed_sweep_replays_single_kernel_event_streams(
        addrs in arb_addrs(),
        points in arb_points(),
    ) {
        let mut probes: Vec<EventLog> = points.iter().map(|_| EventLog::new()).collect();
        let swept = batch_sweep_probed(&points, &addrs, &mut probes);
        for ((point, got), log) in points.iter().zip(&swept).zip(&probes) {
            let mut single = [EventLog::new()];
            let expected = batch_sweep_probed(&[*point], &addrs, &mut single)[0];
            prop_assert_eq!(got, &expected);
            prop_assert_eq!(log.events(), single[0].events());
            // The optimal oracle has no probed hot path: it emits no events.
            if point.policy == SweepPolicy::Optimal {
                prop_assert!(log.events().is_empty());
            }
        }
    }

    /// Duplicated points keep fully independent state: a plan listing the
    /// same point twice yields the same result in both slots.
    #[test]
    fn duplicate_points_are_independent(
        addrs in arb_addrs(),
        size in arb_pow2(64, 1024),
        line in arb_pow2(4, 16),
        policy in arb_policy(),
    ) {
        let config = CacheConfig::direct_mapped(size, line).unwrap();
        let point = SweepPoint::new(config, policy);
        let twice = batch_sweep(&[point, point], &addrs);
        prop_assert_eq!(&twice[0], &twice[1]);
        prop_assert_eq!(&twice[0], &single_point(&point, &addrs));
    }
}
