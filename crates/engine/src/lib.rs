//! Deterministic parallel sweep engine for the `dynex` workspace.
//!
//! The experiment harness evaluates many (cache config × trace × policy)
//! points; each point is an independent pure function of its inputs. This
//! crate turns those serial loops into a parallel engine without giving up
//! reproducibility:
//!
//! * [`execute`] / [`SweepPlan`] — a worker pool over scoped `std::thread`s
//!   with a channel-based work queue. Results are tagged with their plan
//!   index and reassembled in plan order, so the output is **bit-identical
//!   regardless of the worker count** — `--jobs 8` and `--jobs 1` produce
//!   the same bytes.
//! * [`Job`] / [`PolicyKind`] — the sweep-point vocabulary: a cache
//!   configuration under one member of the replacement-policy zoo (the
//!   paper's direct-mapped / dynamic-exclusion / optimal policies and
//!   their last-line variants, the Expected-Hit-Count and bandwidth-cost
//!   additions, and the set-associative / victim / stream comparisons).
//!   [`PolicyKind::run`] is the one dispatch every front end calls; it
//!   returns a [`PolicyRun`] (label, statistics, DE counters). Each policy
//!   declares per-kernel [`KernelSupport`]; unsupported combinations
//!   return a structured [`PolicyError`] instead of silently falling back.
//! * [`default_kernel`] / [`set_default_kernel`] — session-wide selection
//!   between the reference simulators and the bit-identical batch kernels
//!   from `dynex-cache` (the `--kernel` flag; batch is the default).
//! * [`execute_resilient`] — the fault-isolated sibling of [`execute`]:
//!   panics are contained to their slot ([`JobError`]), panicked jobs get a
//!   bounded retry budget, and a soft per-job deadline marks hung jobs
//!   [`JobFailure::TimedOut`] while the rest of the sweep completes.
//! * [`Journal`] — an append-only JSONL checkpoint of completed job
//!   results, keyed by content hash ([`job_key`] / [`trace_digest`]), so an
//!   interrupted sweep resumed with `--resume` replays finished points and
//!   produces byte-identical output.
//! * [`EngineError`] — the unified error taxonomy drivers report through.
//!
//! Like the rest of the workspace the crate has no third-party
//! dependencies: the pool is `std::thread::scope` + `std::sync::mpsc`, so
//! hermetic builds never touch the registry.
//!
//! # Examples
//!
//! ```
//! use dynex_cache::CacheConfig;
//! use dynex_engine::{Job, PolicyKind, SweepPlan};
//!
//! let trace: Vec<u32> = (0..100).map(|i| (i % 40) * 4).collect();
//! let mut plan = SweepPlan::new();
//! for size in [64, 128, 256] {
//!     let config = CacheConfig::direct_mapped(size, 4)?;
//!     plan.push(Job::new(config, PolicyKind::DynamicExclusion));
//! }
//! let stats = plan.run(4, |job| job.run(&trace).expect("de runs on every kernel"));
//! assert_eq!(stats.len(), 3);
//! assert!(stats[2].misses() <= stats[0].misses(), "bigger cache, fewer misses");
//! # Ok::<(), dynex_cache::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod journal;
mod kernel;
mod pool;
mod resilience;
mod sweep;

pub use dynex_cache::{CacheStats, Kernel};
pub use error::EngineError;
pub use journal::{
    fnv1a, job_key, set_global_journal, trace_digest, with_global_journal, Journal, JournalError,
    SyncPolicy,
};
pub use kernel::{default_kernel, set_default_kernel};
pub use pool::{available_jobs, default_jobs, env_jobs, execute, set_default_jobs};
pub use resilience::{execute_resilient, JobError, JobFailure, Resilience, SweepOutcome};
pub use sweep::{Job, KernelSupport, PolicyError, PolicyKind, PolicyRun, SweepPlan};
