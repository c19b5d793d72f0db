//! Integration: the sweep engine's plan-level parallelism is deterministic.
//! A figure-style sweep produces bit-identical `Triple`s — and
//! byte-identical exported JSONL — for every worker count.

use dynex_cache::{CacheConfig, CacheStats, SplitMix64};
use dynex_engine::{execute, Job, PolicyKind, SweepPlan};
use dynex_experiments::{triple, triples_to_jsonl, Triple, Workloads};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn random_trace(seed: u64, len: usize, span: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.below(span) as u32) * 4).collect()
}

#[test]
fn figure_sweep_triples_identical_for_every_worker_count() {
    let workloads = Workloads::generate(4_000);
    let traces: Vec<Vec<u32>> = workloads
        .iter()
        .map(|(name, _)| workloads.instr_addrs(name))
        .collect();
    let mut points: Vec<(CacheConfig, &[u32])> = Vec::new();
    for kb in [1u32, 4, 16] {
        let config = CacheConfig::direct_mapped(kb * 1024, 4).unwrap();
        points.extend(traces.iter().map(|t| (config, t.as_slice())));
    }

    let serial: Vec<Triple> = points.iter().map(|&(c, a)| triple(c, a)).collect();
    for jobs in JOB_COUNTS {
        let parallel = execute(&points, jobs, |&(c, a)| triple(c, a));
        assert_eq!(parallel, serial, "jobs={jobs}");
    }
}

#[test]
fn exported_jsonl_is_byte_identical_for_every_worker_count() {
    let workloads = Workloads::generate(3_000);
    let config = CacheConfig::direct_mapped(8 * 1024, 4).unwrap();
    let names: Vec<&str> = workloads.iter().map(|(name, _)| name).collect();
    let traces: Vec<Vec<u32>> = names.iter().map(|n| workloads.instr_addrs(n)).collect();

    let jsonl_at = |jobs: usize| {
        let results = execute(&traces, jobs, |t| triple(config, t));
        triples_to_jsonl(names.iter().copied().zip(results.iter()))
    };
    let serial = jsonl_at(1);
    assert_eq!(serial.lines().count(), names.len());
    for jobs in JOB_COUNTS {
        assert_eq!(jsonl_at(jobs), serial, "jobs={jobs}");
    }
}

#[test]
fn sweep_plan_of_jobs_is_deterministic() {
    let trace = random_trace(11, 20_000, 4_096);
    let mut plan = SweepPlan::new();
    for kb in [1u32, 2, 4, 8, 16] {
        let config = CacheConfig::direct_mapped(kb * 1024, 4).unwrap();
        for policy in [
            PolicyKind::DirectMapped,
            PolicyKind::DynamicExclusion,
            PolicyKind::OptimalDm,
        ] {
            plan.push(Job::new(config, policy));
        }
    }
    let serial: Vec<CacheStats> = plan.run(1, |job| job.run(&trace).unwrap());
    for jobs in JOB_COUNTS {
        assert_eq!(
            plan.run(jobs, |job| job.run(&trace).unwrap()),
            serial,
            "jobs={jobs}"
        );
    }
}
