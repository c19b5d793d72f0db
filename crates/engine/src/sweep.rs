//! Sweep plans: (cache config × trace × policy) points executed on the pool.
//!
//! [`PolicyKind`] is the one policy vocabulary the request API, the engine,
//! the service and `simcache` share. Each kind names a member of the
//! replacement-policy zoo in `dynex-cache` (the paper's three policies, the
//! Section 6 last-line variants, the EHC / bandwidth-cost additions, and
//! the set-associative and buffered comparisons) and owns its label and
//! associativity. [`PolicyKind::run`] is the single dispatch every front
//! end calls. Every kernel runs every policy: [`Kernel::Reference`] runs
//! the spec simulator, and the fast path ([`Kernel::Batch`] and
//! [`Kernel::Sweep`], two names for the same code) runs dm/de/opt and their
//! last-line variants as a one-point [`batch_sweep`], ehc/bwcost through
//! their chunked kernels, and every other policy through its reference
//! simulator.

use dynex::{DeCache, DeStats, LastLineDeCache, OptimalDirectMapped};
use dynex_cache::{
    batch_bwcost, batch_ehc, batch_sweep, run_addrs, simulate_policy, BwCostPolicy, CacheConfig,
    CacheSim, CacheStats, DirectMapped, EhcPolicy, Kernel, Replacement, SetAssociative,
    StreamBuffer, SweepPoint, SweepPointResult, SweepPolicy, VictimCache,
};

use crate::kernel::default_kernel;
use crate::pool::execute;

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
    /// kernel ([`batch_sweep`]) runs it.
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
    pub fn sweep_counters(self, result: SweepPointResult) -> (CacheStats, Option<DeStats>) {
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
    ///
    /// # Errors
    ///
    /// None today: every kernel runs every policy.
    pub fn simulate(self, config: CacheConfig, addrs: &[u32]) -> Result<CacheStats, PolicyError> {
        self.simulate_kernel(default_kernel(), config, addrs)
    }

    /// Simulates one point with an explicit kernel: the single dispatch
    /// behind `api::execute`, the service and `simcache`. Returns the
    /// label, the statistics, and (for `de`) the exclusion counters.
    ///
    /// Every kernel is bit-identical in output (the differential wall in
    /// `tests/kernel_differential.rs` enforces the policy × kernel matrix).
    /// On the fast path (batch or sweep) dm/de/opt and their last-line
    /// variants run as a one-point [`batch_sweep`] — the sharing across
    /// points comes from plan-level
    /// entry points like [`SweepPlan::run_one_pass`] — ehc and bwcost run
    /// [`batch_ehc`] / [`batch_bwcost`], and every other policy runs its
    /// reference simulator.
    ///
    /// # Errors
    ///
    /// None today: every kernel runs every policy.
    pub fn run(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
    ) -> Result<PolicyRun, PolicyError> {
        let (stats, de) = self.counters(kernel, config, addrs)?;
        Ok(PolicyRun {
            label: self.label(config),
            stats,
            de,
        })
    }

    /// The statistics-only view of [`PolicyKind::run`].
    ///
    /// # Errors
    ///
    /// As [`PolicyKind::run`].
    pub fn simulate_kernel(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
    ) -> Result<CacheStats, PolicyError> {
        self.counters(kernel, config, addrs).map(|(stats, _)| stats)
    }

    /// [`PolicyKind::run`] without the label.
    fn counters(
        self,
        kernel: Kernel,
        config: CacheConfig,
        addrs: &[u32],
    ) -> Result<(CacheStats, Option<DeStats>), PolicyError> {
        if kernel == Kernel::Reference {
            return Ok(self.reference(config, addrs));
        }
        if let Some(policy) = self.sweep_policy() {
            let result = batch_sweep(&[SweepPoint::new(config, policy)], addrs)[0];
            return Ok(self.sweep_counters(result));
        }
        Ok(match self {
            PolicyKind::ExpectedHitCount => (batch_ehc(config, addrs), None),
            PolicyKind::BandwidthCost => (batch_bwcost(config, addrs), None),
            // The set-associative and buffered caches have no chunked
            // per-set loop: the fast path runs their reference simulators.
            _ => self.reference(config, addrs),
        })
    }

    /// The spec simulator for this policy — the bit-exactness baseline
    /// every specialized kernel is measured against.
    fn reference(self, config: CacheConfig, addrs: &[u32]) -> (CacheStats, Option<DeStats>) {
        let refs = addrs.iter().copied();
        let stats = match self {
            PolicyKind::DirectMapped => run_addrs(&mut DirectMapped::new(config), refs),
            PolicyKind::DynamicExclusion => {
                let mut sim = DeCache::new(config);
                let stats = run_addrs(&mut sim, refs);
                return (stats, Some(sim.de_stats()));
            }
            PolicyKind::DeLastLine => run_addrs(&mut LastLineDeCache::new(config), refs),
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
            PolicyKind::TwoWay | PolicyKind::FourWay => {
                run_addrs(&mut SetAssociative::new(config, Replacement::Lru), refs)
            }
            PolicyKind::Victim => run_addrs(&mut VictimCache::new(config, VICTIM_ENTRIES), refs),
            PolicyKind::Stream => run_addrs(&mut StreamBuffer::new(config, STREAM_DEPTH), refs),
        };
        (stats, None)
    }
}

/// One sweep point: a cache configuration under a policy.
///
/// A job is pure data; running it against a trace is side-effect-free, which
/// is what lets the pool execute jobs in any order and still produce
/// plan-ordered, bit-identical results.
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

    /// Simulates the job over a byte-address trace with the session's
    /// [`default_kernel`].
    ///
    /// # Errors
    ///
    /// None today: every kernel runs every policy.
    pub fn run(&self, addrs: &[u32]) -> Result<CacheStats, PolicyError> {
        self.policy.simulate(self.config, addrs)
    }

    /// `<policy>@<config>`, e.g. `de@32KB direct-mapped, 4B lines`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.policy.name(), self.config)
    }
}

/// An ordered list of sweep points, executed deterministically on the pool.
///
/// The plan is generic over the point type: the experiment harness uses
/// `(CacheConfig, &[u32])` pairs, `simcache` uses [`Job`]s, tests use
/// whatever they need. Results always come back in push order.
///
/// # Examples
///
/// ```
/// use dynex_cache::CacheConfig;
/// use dynex_engine::{Job, PolicyKind, SweepPlan};
///
/// let config = CacheConfig::direct_mapped(64, 4)?;
/// let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
/// let mut plan = SweepPlan::new();
/// plan.push(Job::new(config, PolicyKind::DirectMapped));
/// plan.push(Job::new(config, PolicyKind::DynamicExclusion));
/// plan.push(Job::new(config, PolicyKind::OptimalDm));
/// let stats = plan.run(4, |job| job.run(&trace).expect("supported on every kernel"));
/// assert_eq!(stats[0].misses(), 20); // DM thrashes
/// assert!(stats[2].misses() <= stats[1].misses()); // OPT bounds DE
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SweepPlan<T> {
    points: Vec<T>,
}

impl<T: Sync> SweepPlan<T> {
    /// An empty plan.
    pub fn new() -> SweepPlan<T> {
        SweepPlan { points: Vec::new() }
    }

    /// Builds a plan from an iterator of points.
    pub fn from_points<I: IntoIterator<Item = T>>(points: I) -> SweepPlan<T> {
        SweepPlan {
            points: points.into_iter().collect(),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, point: T) {
        self.points.push(point);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points, in plan order.
    pub fn points(&self) -> &[T] {
        &self.points
    }

    /// Executes `f` over every point on `jobs` workers; results are in plan
    /// order and bit-identical for every `jobs` value.
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        execute(&self.points, jobs, f)
    }
}

impl SweepPlan<Job> {
    /// The one-pass fast path: hands the whole plan to a single
    /// [`batch_sweep`] traversal of the shared trace.
    ///
    /// Returns `None` (caller falls back to per-point execution) if any
    /// point's policy has no sweep specialization
    /// ([`PolicyKind::sweep_policy`]).
    /// Results are in plan order and bit-identical to [`SweepPlan::run`]
    /// with any kernel — the whole plan simply costs one decode per chunk
    /// and line size, one next-use oracle per distinct line size, and one
    /// trace walk.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynex_cache::CacheConfig;
    /// use dynex_engine::{Job, PolicyKind, SweepPlan};
    ///
    /// let config = CacheConfig::direct_mapped(64, 4)?;
    /// let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
    /// let plan = SweepPlan::from_points([
    ///     Job::new(config, PolicyKind::DirectMapped),
    ///     Job::new(config, PolicyKind::DynamicExclusion),
    /// ]);
    /// let stats = plan.run_one_pass(&trace).unwrap();
    /// assert_eq!(stats, plan.run(1, |job| job.run(&trace).unwrap()));
    /// # Ok::<(), dynex_cache::ConfigError>(())
    /// ```
    pub fn run_one_pass(&self, addrs: &[u32]) -> Option<Vec<CacheStats>> {
        let points: Option<Vec<SweepPoint>> = self
            .points
            .iter()
            .map(|job| {
                job.policy
                    .sweep_policy()
                    .map(|policy| SweepPoint::new(job.config, policy))
            })
            .collect();
        let results = batch_sweep(&points?, addrs);
        Some(results.iter().map(|r| r.stats()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(job.run(&addrs).unwrap(), expected);
        assert!(job.label().starts_with("dm@"));
    }

    #[test]
    fn plan_results_are_plan_ordered_for_any_job_count() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let addrs = thrash();
        let plan = SweepPlan::from_points([
            Job::new(config, PolicyKind::DirectMapped),
            Job::new(config, PolicyKind::DynamicExclusion),
            Job::new(config, PolicyKind::OptimalDm),
        ]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        let serial = plan.run(1, |job| job.run(&addrs).unwrap());
        for jobs in [2, 4, 8] {
            assert_eq!(plan.run(jobs, |job| job.run(&addrs).unwrap()), serial);
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

    #[test]
    fn one_pass_plan_matches_per_point_execution() {
        let mut rng = dynex_cache::SplitMix64::new(43);
        let addrs: Vec<u32> = (0..12_000)
            .map(|_| (rng.below(16_384) as u32) * 4)
            .collect();
        let mut plan = SweepPlan::new();
        for size in [256u32, 1024, 8192] {
            for line in [4u32, 16] {
                let config = CacheConfig::direct_mapped(size, line).unwrap();
                plan.push(Job::new(config, PolicyKind::DirectMapped));
                plan.push(Job::new(config, PolicyKind::DynamicExclusion));
                plan.push(Job::new(config, PolicyKind::OptimalDm));
            }
        }
        let one_pass = plan.run_one_pass(&addrs).unwrap();
        assert_eq!(one_pass, plan.run(1, |job| job.run(&addrs).unwrap()));
        assert_eq!(one_pass, plan.run(4, |job| job.run(&addrs).unwrap()));
    }

    #[test]
    fn one_pass_plan_declines_unfused_policies() {
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let plan = SweepPlan::from_points([
            Job::new(config, PolicyKind::DirectMapped),
            Job::new(config, PolicyKind::ExpectedHitCount),
        ]);
        assert!(plan.run_one_pass(&[0, 4, 8]).is_none());
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
        let plan = SweepPlan::from_points(policies.map(|p| Job::new(config, p)));
        let reference: Vec<CacheStats> = policies
            .iter()
            .map(|p| {
                p.simulate_kernel(Kernel::Reference, config, &addrs)
                    .unwrap()
            })
            .collect();
        assert_eq!(plan.run_one_pass(&addrs).unwrap(), reference);
        for policy in policies {
            let run = policy.run(Kernel::Sweep, config, &addrs).unwrap();
            assert_eq!(run, policy.run(Kernel::Reference, config, &addrs).unwrap());
            assert_eq!(run.de.is_some(), policy == PolicyKind::DynamicExclusion);
        }
    }

    #[test]
    fn lastline_policies_simulate() {
        let config = CacheConfig::direct_mapped(64, 16).unwrap();
        let addrs: Vec<u32> = (0..200).map(|i| (i % 32) * 4).collect();
        let de = PolicyKind::DeLastLine.simulate(config, &addrs).unwrap();
        let opt = PolicyKind::OptimalDmLastLine
            .simulate(config, &addrs)
            .unwrap();
        assert_eq!(de.accesses(), 200);
        assert!(opt.misses() <= de.misses());
    }
}
