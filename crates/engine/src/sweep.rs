//! Sweep plans: (cache config × trace × policy) points executed on the pool.
//!
//! [`PolicyKind`] is the one policy vocabulary the request API, the engine,
//! the service and `simcache` share. Each kind names a member of the
//! replacement-policy zoo in `dynex-cache` (the paper's three policies, the
//! Section 6 last-line variants, the EHC / bandwidth-cost additions, and
//! the set-associative and buffered comparisons) and owns its label and
//! associativity. [`run_jobs`] is the one dispatch: it runs N [`Job`]s over
//! one trace under one kernel, one probe per job, and every front end
//! ([`PolicyKind::run`], the figure triples, coalesced service batches,
//! `simcache`'s probed runs) is its one-job or N-job case. Every kernel
//! runs every policy: [`Kernel::Reference`] runs the spec simulators, and
//! the fast path ([`Kernel::Batch`] and [`Kernel::Sweep`], two names for
//! the same code) runs every dm/de/opt or last-line job of the call in one
//! [`batch_sweep_probed`] traversal, ehc/bwcost through their chunked
//! kernels, and every other policy through its reference simulator.

use dynex::{DeCache, DeStats, LastLineDeCache, OptimalDirectMapped, PerfectStore};
use dynex_cache::{
    batch_bwcost, batch_ehc, batch_sweep_probed, run_addrs, simulate_policy, BwCostPolicy,
    CacheConfig, CacheSim, CacheStats, DirectMapped, EhcPolicy, Kernel, Replacement,
    SetAssociative, StreamBuffer, SweepPoint, SweepPointResult, SweepPolicy, VictimCache,
};
use dynex_obs::{NoopProbe, Probe};

use crate::kernel::default_kernel;

/// Entries in the `victim` policy's victim buffer.
const VICTIM_ENTRIES: usize = 4;

/// Depth of the `stream` policy's stream buffer.
const STREAM_DEPTH: usize = 4;

/// The replacement/bypass policy a [`Job`] or request simulates: the
/// descriptor half of the policy zoo (the stateful halves live in
/// `dynex-cache` and `dynex-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Conventional direct-mapped (the paper's baseline).
    DirectMapped,
    /// Dynamic exclusion with a perfect hit-last store.
    DynamicExclusion,
    /// Dynamic exclusion with the Section 6 last-line buffer (multi-word
    /// lines).
    DeLastLine,
    /// The future-knowing optimal direct-mapped cache.
    OptimalDm,
    /// Optimal direct-mapped with a last-line buffer.
    OptimalDmLastLine,
    /// Expected-Hit-Count replacement (arXiv 1808.05024): rank blocks by
    /// hit count within a capacity-scaled window instead of
    /// time-to-next-use.
    ExpectedHitCount,
    /// Bandwidth-aware selective fill (arXiv 1907.02167): install only
    /// blocks that proved reuse; measured in bandwidth transfers.
    BandwidthCost,
    /// Two-way set-associative, LRU.
    TwoWay,
    /// Four-way set-associative, LRU.
    FourWay,
    /// Direct-mapped plus a 4-entry victim buffer.
    Victim,
    /// Direct-mapped plus a 4-deep stream buffer.
    Stream,
}

/// One simulated point as every front end reports it: the organization
/// label, the statistics, and the exclusion counters (reported by `de`
/// only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRun {
    /// Human-readable organization label.
    pub label: String,
    /// Hit/miss (and, for traffic-accounting policies, traffic) counters.
    pub stats: CacheStats,
    /// Dynamic-exclusion load/bypass counters; `Some` for `de` only.
    pub de: Option<DeStats>,
}

/// A structured policy-surface error: an unknown policy name. It names the
/// supported set, so CLI and service callers can surface an actionable
/// message without pattern-matching internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The name matched no member of the policy zoo.
    UnknownPolicy {
        /// The offending name, verbatim.
        name: String,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::UnknownPolicy { name } => {
                let supported: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
                write!(
                    f,
                    "unknown policy {name:?} (supported: {})",
                    supported.join("|")
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyKind {
    /// Every member of the policy zoo, in presentation order.
    pub const ALL: [PolicyKind; 11] = [
        PolicyKind::DirectMapped,
        PolicyKind::DynamicExclusion,
        PolicyKind::DeLastLine,
        PolicyKind::OptimalDm,
        PolicyKind::OptimalDmLastLine,
        PolicyKind::ExpectedHitCount,
        PolicyKind::BandwidthCost,
        PolicyKind::TwoWay,
        PolicyKind::FourWay,
        PolicyKind::Victim,
        PolicyKind::Stream,
    ];

    /// Stable lowercase name (used in labels, wire requests, journal keys,
    /// and exported reports).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::DirectMapped => "dm",
            PolicyKind::DynamicExclusion => "de",
            PolicyKind::DeLastLine => "de-lastline",
            PolicyKind::OptimalDm => "opt",
            PolicyKind::OptimalDmLastLine => "opt-lastline",
            PolicyKind::ExpectedHitCount => "ehc",
            PolicyKind::BandwidthCost => "bwcost",
            PolicyKind::TwoWay => "2way",
            PolicyKind::FourWay => "4way",
            PolicyKind::Victim => "victim",
            PolicyKind::Stream => "stream",
        }
    }

    /// Parses a stable name back to its kind.
    ///
    /// # Errors
    ///
    /// [`PolicyError::UnknownPolicy`] (listing the supported set) when the
    /// name matches no zoo member.
    pub fn parse(name: &str) -> Result<PolicyKind, PolicyError> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| PolicyError::UnknownPolicy {
                name: name.to_owned(),
            })
    }

    /// The cache associativity this policy simulates (1 = direct-mapped).
    pub fn associativity(self) -> u32 {
        match self {
            PolicyKind::TwoWay => 2,
            PolicyKind::FourWay => 4,
            _ => 1,
        }
    }

    /// The human-readable organization label reported for `config`.
    pub fn label(self, config: CacheConfig) -> String {
        match self {
            PolicyKind::DirectMapped => DirectMapped::new(config).label(),
            PolicyKind::DynamicExclusion => DeCache::new(config).label(),
            PolicyKind::DeLastLine => LastLineDeCache::new(config).label(),
            PolicyKind::OptimalDm => "optimal direct-mapped".to_owned(),
            PolicyKind::OptimalDmLastLine => "optimal direct-mapped + last-line".to_owned(),
            PolicyKind::ExpectedHitCount => "expected-hit-count direct-mapped".to_owned(),
            PolicyKind::BandwidthCost => "bandwidth-aware direct-mapped".to_owned(),
            PolicyKind::TwoWay | PolicyKind::FourWay => {
                SetAssociative::new(config, Replacement::Lru).label()
            }
            PolicyKind::Victim => VictimCache::new(config, VICTIM_ENTRIES).label(),
            PolicyKind::Stream => StreamBuffer::new(config, STREAM_DEPTH).label(),
        }
    }

    /// The sweep-kernel policy this policy maps to, if the fast dm/de/opt
    /// kernel ([`batch_sweep_probed`]) runs it.
    ///
    /// `Some` for dm, de, opt and their last-line variants; `None` for the
    /// EHC / bandwidth-cost members (their own chunked kernels) and the
    /// set-associative and buffered comparisons.
    pub fn sweep_policy(self) -> Option<SweepPolicy> {
        match self {
            PolicyKind::DirectMapped => Some(SweepPolicy::DirectMapped),
            PolicyKind::DynamicExclusion => Some(SweepPolicy::DynamicExclusion),
            PolicyKind::DeLastLine => Some(SweepPolicy::DeLastLine),
            PolicyKind::OptimalDm => Some(SweepPolicy::Optimal),
            PolicyKind::OptimalDmLastLine => Some(SweepPolicy::OptimalLastLine),
            _ => None,
        }
    }

    /// The statistics and reported exclusion counters of one sweep point
    /// run under this policy. Only `de` reports counters: `de-lastline`
    /// computes them too (one load or bypass per line run), but its
    /// responses never carried them.
    fn sweep_counters(self, result: SweepPointResult) -> (CacheStats, Option<DeStats>) {
        let de = result
            .de()
            .filter(|_| self == PolicyKind::DynamicExclusion)
            .map(|r| DeStats {
                loads: r.loads,
                bypasses: r.bypasses,
            });
        (result.stats(), de)
    }

    /// Simulates this policy over a byte-address trace with the session's
    /// [`default_kernel`].
    pub fn simulate(self, config: CacheConfig, addrs: &[u32]) -> CacheStats {
        self.counters(default_kernel(), config, addrs).0
    }

    /// Simulates one point with an explicit kernel, as the one-job case of
    /// [`run_jobs`]: the dispatch behind `api::execute` and the service.
    /// Returns the label, the statistics, and (for `de`) the exclusion
    /// counters.
    ///
    /// Every kernel is bit-identical in output (the differential wall in
    /// `tests/kernel_differential.rs` enforces the policy × kernel matrix).
    pub fn run(self, kernel: Kernel, config: CacheConfig, addrs: &[u32]) -> PolicyRun {
        let (stats, de) = self.counters(kernel, config, addrs);
        PolicyRun {
            label: self.label(config),
            stats,
            de,
        }
    }

    /// The statistics-only view of [`PolicyKind::run`].
    ///
    /// # Errors
    ///
    /// None: every kernel runs every policy. The `Result` stays only
    /// because the benchmark package matches on `Ok`/`Err` here.
    pub fn simulate_kernel(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
    ) -> Result<CacheStats, PolicyError> {
        Ok(self.counters(kernel, config, addrs).0)
    }

    /// [`PolicyKind::run`] without the label.
    fn counters(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
    ) -> (CacheStats, Option<DeStats>) {
        run_jobs(kernel, &[Job::new(config, self)], addrs, &mut [NoopProbe])[0]
    }

    /// Runs one job outside the shared sweep traversal: on the fast path
    /// ehc and bwcost run their chunked kernels, and every other policy
    /// runs its spec simulator — the bit-exactness baseline every
    /// specialized kernel is measured against — with `probe` attached.
    fn run_alone<P: Probe>(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
        probe: P,
    ) -> (CacheStats, Option<DeStats>) {
        let fast = kernel != Kernel::Reference;
        let refs = addrs.iter().copied();
        let stats = match self {
            PolicyKind::ExpectedHitCount if fast => batch_ehc(config, addrs),
            PolicyKind::BandwidthCost if fast => batch_bwcost(config, addrs),
            PolicyKind::DirectMapped => {
                run_addrs(&mut DirectMapped::with_probe(config, probe), refs)
            }
            PolicyKind::DynamicExclusion => {
                let mut sim = DeCache::with_probe(config, probe);
                let stats = run_addrs(&mut sim, refs);
                return (stats, Some(sim.de_stats()));
            }
            PolicyKind::DeLastLine => {
                let mut sim =
                    LastLineDeCache::with_store_and_probe(config, PerfectStore::new(), probe);
                run_addrs(&mut sim, refs)
            }
            PolicyKind::OptimalDm => OptimalDirectMapped::simulate(config, refs),
            PolicyKind::OptimalDmLastLine => {
                OptimalDirectMapped::simulate_with_lastline(config, refs)
            }
            PolicyKind::ExpectedHitCount => {
                simulate_policy(config, addrs, &mut EhcPolicy::new(config, addrs))
            }
            PolicyKind::BandwidthCost => {
                simulate_policy(config, addrs, &mut BwCostPolicy::new(config, addrs))
            }
            PolicyKind::TwoWay | PolicyKind::FourWay => run_addrs(
                &mut SetAssociative::with_probe(config, Replacement::Lru, probe),
                refs,
            ),
            PolicyKind::Victim => run_addrs(
                &mut VictimCache::with_probe(config, VICTIM_ENTRIES, probe),
                refs,
            ),
            PolicyKind::Stream => run_addrs(
                &mut StreamBuffer::with_probe(config, STREAM_DEPTH, probe),
                refs,
            ),
        };
        (stats, None)
    }
}

/// Runs `jobs` over one trace under one kernel, `probes[i]` observing
/// `jobs[i]`, and returns each job's statistics and exclusion counters (the
/// latter reported by `de` only), in job order.
///
/// This is the one place that decides which simulator runs a point and
/// which points share a trace walk; [`PolicyKind::run`], the figure triples,
/// the coalesced service batches and `simcache`'s probed runs are its
/// one-job or N-job cases. On the fast path ([`Kernel::Batch`] or
/// [`Kernel::Sweep`]) every dm/de/opt or last-line job rides one
/// [`batch_sweep_probed`] traversal — one decode per chunk and distinct
/// line size, one next-use oracle per distinct line size — ehc and bwcost
/// run [`batch_ehc`] / [`batch_bwcost`], and every other job runs its
/// reference simulator. Under [`Kernel::Reference`] every job runs its
/// spec simulator. Every kernel yields the same results, and each probe
/// receives its job's reference event stream (opt, opt-lastline, ehc and
/// bwcost emit none).
///
/// # Panics
///
/// Panics if `probes.len() != jobs.len()`.
///
/// # Examples
///
/// ```
/// use dynex_cache::CacheConfig;
/// use dynex_engine::{run_jobs, Job, Kernel, PolicyKind};
/// use dynex_obs::NoopProbe;
///
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// // dm and de share one traversal; ehc and 2way run alone inside the call.
/// let jobs = [
///     Job::new(config, PolicyKind::DirectMapped),
///     Job::new(config, PolicyKind::DynamicExclusion),
///     Job::new(config, PolicyKind::ExpectedHitCount),
///     Job::new(CacheConfig::new(64, 4, 2)?, PolicyKind::TwoWay),
/// ];
/// let runs = run_jobs(Kernel::Sweep, &jobs, &trace, &mut [NoopProbe; 4]);
/// for (job, (stats, de)) in jobs.iter().zip(&runs) {
///     let single = job.policy.run(Kernel::Reference, job.config, &trace);
///     assert_eq!((*stats, *de), (single.stats, single.de));
/// }
/// assert_eq!(runs[0].0.misses(), 20); // DM thrashes
/// assert!(runs[1].1.is_some() && runs[0].1.is_none()); // only de reports counters
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
pub fn run_jobs<P: Probe>(
    kernel: Kernel,
    jobs: &[Job],
    addrs: &[u32],
    probes: &mut [P],
) -> Vec<(CacheStats, Option<DeStats>)> {
    assert_eq!(jobs.len(), probes.len(), "one probe per job");
    let mut runs = vec![None; jobs.len()];
    let mut swept = Vec::new();
    let mut points = Vec::new();
    let mut sweep_probes = Vec::new();
    let fast = kernel != Kernel::Reference;
    for (i, (job, probe)) in jobs.iter().zip(probes.iter_mut()).enumerate() {
        match job.policy.sweep_policy().filter(|_| fast) {
            Some(policy) => {
                swept.push(i);
                points.push(SweepPoint::new(job.config, policy));
                sweep_probes.push(probe);
            }
            None => runs[i] = Some(job.policy.run_alone(kernel, job.config, addrs, probe)),
        }
    }
    let results = batch_sweep_probed(&points, addrs, &mut sweep_probes);
    for (i, result) in swept.into_iter().zip(results) {
        runs[i] = Some(jobs[i].policy.sweep_counters(result));
    }
    runs.into_iter()
        .map(|run| run.expect("every job runs alone or in the sweep"))
        .collect()
}

/// One sweep point: a cache configuration under a policy.
///
/// A job is pure data; running it against a trace is side-effect-free, which
/// is what lets the pool execute jobs in any order and still produce
/// plan-ordered, bit-identical results.
///
/// # Examples
///
/// ```
/// use dynex_cache::CacheConfig;
/// use dynex_engine::{execute, Job, PolicyKind};
///
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let jobs = [
///     Job::new(config, PolicyKind::DirectMapped),
///     Job::new(config, PolicyKind::DynamicExclusion),
///     Job::new(config, PolicyKind::OptimalDm),
/// ];
/// let stats = execute(&jobs, 4, |job| job.policy.simulate(job.config, &trace));
/// assert_eq!(stats[0].misses(), 20); // DM thrashes
/// assert!(stats[2].misses() <= stats[1].misses()); // OPT bounds DE
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The cache geometry to simulate.
    pub config: CacheConfig,
    /// The replacement/bypass policy.
    pub policy: PolicyKind,
}

impl Job {
    /// Creates a job.
    pub fn new(config: CacheConfig, policy: PolicyKind) -> Job {
        Job { config, policy }
    }

    /// `<policy>@<config>`, e.g. `de@32KB direct-mapped, 4B lines`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.policy.name(), self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::execute;
    use dynex_obs::{CountingProbe, EventCounts};

    fn thrash() -> Vec<u32> {
        (0..40).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect()
    }

    #[test]
    fn policy_names() {
        assert_eq!(PolicyKind::DirectMapped.name(), "dm");
        assert_eq!(PolicyKind::OptimalDmLastLine.name(), "opt-lastline");
        assert_eq!(PolicyKind::ExpectedHitCount.name(), "ehc");
        assert_eq!(PolicyKind::BandwidthCost.name(), "bwcost");
    }

    #[test]
    fn names_parse_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Ok(kind));
        }
    }

    #[test]
    fn unknown_policy_error_lists_the_supported_set() {
        let err = PolicyKind::parse("lru").unwrap_err();
        assert_eq!(
            err,
            PolicyError::UnknownPolicy {
                name: "lru".to_owned()
            }
        );
        let message = err.to_string();
        assert!(message.contains("\"lru\""), "{message}");
        for kind in PolicyKind::ALL {
            assert!(message.contains(kind.name()), "{message} missing {kind:?}");
        }
    }

    #[test]
    fn job_matches_direct_simulation() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let mut dm = DirectMapped::new(config);
        let expected = run_addrs(&mut dm, addrs.iter().copied());
        let job = Job::new(config, PolicyKind::DirectMapped);
        assert_eq!(job.policy.simulate(job.config, &addrs), expected);
        assert!(job.label().starts_with("dm@"));
    }

    #[test]
    fn plan_results_are_plan_ordered_for_any_job_count() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let plan = [
            Job::new(config, PolicyKind::DirectMapped),
            Job::new(config, PolicyKind::DynamicExclusion),
            Job::new(config, PolicyKind::OptimalDm),
        ];
        let simulate = |job: &Job| job.policy.simulate(job.config, &addrs);
        let serial = execute(&plan, 1, simulate);
        assert_eq!(serial.len(), 3);
        for jobs in [2, 4, 8] {
            assert_eq!(execute(&plan, jobs, simulate), serial);
        }
        // The familiar ordering: OPT <= DE < DM on a thrash trace.
        assert!(serial[2].misses() <= serial[1].misses());
        assert!(serial[1].misses() < serial[0].misses());
    }

    #[test]
    fn ehc_and_bwcost_on_sweep_match_reference() {
        // The sweep kernel runs the EHC and bandwidth-cost policies through
        // their fast kernels and agrees with the reference simulator.
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        for policy in [PolicyKind::ExpectedHitCount, PolicyKind::BandwidthCost] {
            assert_eq!(
                policy
                    .simulate_kernel(Kernel::Sweep, config, &[0, 4])
                    .unwrap(),
                policy
                    .simulate_kernel(Kernel::Reference, config, &[0, 4])
                    .unwrap(),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn capability_matrix_has_no_silent_gaps() {
        // Every cell of the policy x kernel matrix simulates and agrees with
        // the reference simulator.
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        for kind in PolicyKind::ALL {
            let reference = kind
                .simulate_kernel(Kernel::Reference, config, &addrs)
                .unwrap();
            for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
                let result = kind.simulate_kernel(kernel, config, &addrs);
                assert_eq!(
                    result.as_ref().ok(),
                    Some(&reference),
                    "{kind:?} under {kernel} must simulate"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_for_every_policy() {
        // Every kernel runs every policy, and all three agree bit for bit.
        let mut rng = dynex_cache::SplitMix64::new(41);
        let addrs: Vec<u32> = (0..8000).map(|_| (rng.below(2048) as u32) * 4).collect();
        for policy in PolicyKind::ALL {
            for config in [
                CacheConfig::direct_mapped(256, 4).unwrap(),
                CacheConfig::direct_mapped(1024, 16).unwrap(),
            ] {
                let reference = policy
                    .simulate_kernel(Kernel::Reference, config, &addrs)
                    .unwrap();
                for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
                    assert_eq!(
                        policy.simulate_kernel(kernel, config, &addrs).unwrap(),
                        reference,
                        "{} @ {config} under {kernel}",
                        policy.name()
                    );
                }
            }
        }
    }

    const KERNELS: [Kernel; 3] = [Kernel::Reference, Kernel::Batch, Kernel::Sweep];

    fn noop_probes(jobs: &[Job]) -> Vec<NoopProbe> {
        vec![NoopProbe; jobs.len()]
    }

    #[test]
    fn one_pass_plan_matches_per_point_execution() {
        let mut rng = dynex_cache::SplitMix64::new(43);
        let addrs: Vec<u32> = (0..12_000)
            .map(|_| (rng.below(16_384) as u32) * 4)
            .collect();
        let mut jobs = Vec::new();
        for size in [256u32, 1024, 8192] {
            for line in [4u32, 16] {
                let config = CacheConfig::direct_mapped(size, line).unwrap();
                jobs.push(Job::new(config, PolicyKind::DirectMapped));
                jobs.push(Job::new(config, PolicyKind::DynamicExclusion));
                jobs.push(Job::new(config, PolicyKind::OptimalDm));
            }
        }
        let simulate = |job: &Job| job.policy.simulate(job.config, &addrs);
        let serial = execute(&jobs, 1, simulate);
        assert_eq!(serial, execute(&jobs, 4, simulate));
        for kernel in KERNELS {
            let one_pass: Vec<CacheStats> =
                run_jobs(kernel, &jobs, &addrs, &mut noop_probes(&jobs))
                    .into_iter()
                    .map(|(stats, _)| stats)
                    .collect();
            assert_eq!(one_pass, serial, "{kernel}");
        }
    }

    #[test]
    fn one_pass_plan_declines_unfused_policies() {
        // The shared traversal declines jobs without a sweep specialization;
        // they run alone inside the same call, so a mixed plan equals
        // per-job `PolicyKind::run` under every kernel.
        let addrs: Vec<u32> = (0..900).map(|i| (i % 11) * 4 + (i / 33 % 5) * 64).collect();
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let jobs = [
            Job::new(config, PolicyKind::DirectMapped),
            Job::new(config, PolicyKind::ExpectedHitCount),
            Job::new(config, PolicyKind::DynamicExclusion),
            Job::new(CacheConfig::new(64, 16, 2).unwrap(), PolicyKind::TwoWay),
            Job::new(config, PolicyKind::BandwidthCost),
            Job::new(config, PolicyKind::OptimalDmLastLine),
        ];
        for kernel in KERNELS {
            let runs = run_jobs(kernel, &jobs, &addrs, &mut noop_probes(&jobs));
            for (job, &(stats, de)) in jobs.iter().zip(&runs) {
                let single = job.policy.run(kernel, job.config, &addrs);
                assert_eq!(
                    (stats, de),
                    (single.stats, single.de),
                    "{} under {kernel}",
                    job.label()
                );
            }
        }
        assert_eq!(
            PolicyKind::DeLastLine.sweep_policy(),
            Some(SweepPolicy::DeLastLine)
        );
        assert_eq!(
            PolicyKind::OptimalDmLastLine.sweep_policy(),
            Some(SweepPolicy::OptimalLastLine)
        );
        assert!(PolicyKind::ExpectedHitCount.sweep_policy().is_none());
        assert!(PolicyKind::BandwidthCost.sweep_policy().is_none());
        assert!(PolicyKind::TwoWay.sweep_policy().is_none());
    }

    #[test]
    fn one_pass_plan_runs_lastline_policies() {
        // Fetch-like runs at 16 B lines: the last-line variants ride the
        // one-pass plan, equal their reference simulators, and only `de`
        // reports exclusion counters.
        let addrs: Vec<u32> = (0..600).map(|i| (i % 7) * 4 + (i / 21 % 3) * 64).collect();
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let policies = [
            PolicyKind::DeLastLine,
            PolicyKind::OptimalDmLastLine,
            PolicyKind::DynamicExclusion,
        ];
        let jobs = policies.map(|p| Job::new(config, p));
        let reference = run_jobs(Kernel::Reference, &jobs, &addrs, &mut noop_probes(&jobs));
        assert_eq!(
            run_jobs(Kernel::Sweep, &jobs, &addrs, &mut noop_probes(&jobs)),
            reference
        );
        for (policy, (_, de)) in policies.into_iter().zip(reference) {
            let run = policy.run(Kernel::Sweep, config, &addrs);
            assert_eq!(run, policy.run(Kernel::Reference, config, &addrs));
            assert_eq!(run.de, de);
            assert_eq!(de.is_some(), policy == PolicyKind::DynamicExclusion);
        }
    }

    #[test]
    fn observed_triple_matches_bare_triple_and_stats() {
        // A dm/de/opt triple with a counting probe per job, on every kernel.
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let jobs = [
            PolicyKind::DirectMapped,
            PolicyKind::DynamicExclusion,
            PolicyKind::OptimalDm,
        ]
        .map(|p| Job::new(config, p));
        let bare = run_jobs(Kernel::Reference, &jobs, &addrs, &mut noop_probes(&jobs));
        for kernel in KERNELS {
            let mut probes = [CountingProbe::new(); 3];
            let observed = run_jobs(kernel, &jobs, &addrs, &mut probes);
            assert_eq!(observed, bare, "{kernel}");
            let [dm, de, opt] = probes.map(|p| p.counts());
            let (dm_stats, de_stats) = (bare[0].0, bare[1].0);
            // Event tallies agree with the statistics they mirror.
            assert_eq!(
                (dm.accesses, dm.misses),
                (dm_stats.accesses(), dm_stats.misses())
            );
            assert_eq!(
                (de.accesses, de.misses),
                (de_stats.accesses(), de_stats.misses())
            );
            // Every DE miss carries an exclusion decision, and the tallies
            // equal the reported counters.
            assert_eq!(
                de.exclusion_loads + de.exclusion_bypasses,
                de_stats.misses()
            );
            let counters = bare[1].1.expect("de reports exclusion counters");
            assert_eq!(
                (de.exclusion_loads, de.exclusion_bypasses),
                (counters.loads, counters.bypasses)
            );
            // The thrash trace bypasses: DE must report some excluded loads.
            assert!(de.exclusion_bypasses > 0);
            // A conventional cache makes no exclusion decisions, and the
            // two-pass oracle emits no events.
            assert_eq!((dm.exclusion_loads, dm.exclusion_bypasses), (0, 0));
            assert_eq!(opt, EventCounts::default());
        }
    }

    #[test]
    fn lastline_policies_simulate() {
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let addrs: Vec<u32> = (0..200).map(|i| (i % 32) * 4).collect();
        let de = PolicyKind::DeLastLine.simulate(config, &addrs);
        let opt = PolicyKind::OptimalDmLastLine.simulate(config, &addrs);
        assert_eq!(de.accesses(), 200);
        assert!(opt.misses() <= de.misses());
    }
}
