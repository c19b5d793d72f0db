//! Trace-driven cache simulation substrate for the `dynex` workspace.
//!
//! This crate provides everything McFarling's ISCA '92 dynamic-exclusion
//! study needs *underneath* the contribution itself:
//!
//! * [`CacheConfig`] / [`Geometry`] — size/line/associativity parameters and
//!   the derived index/tag arithmetic,
//! * [`DirectMapped`] — the baseline cache of the paper,
//! * [`SetAssociative`] and [`FullyAssociative`] — comparison organizations
//!   with pluggable [`Replacement`] policies,
//! * [`VictimCache`] and [`StreamBuffer`] — the related-work hardware from
//!   Jouppi \[Jou90\] that Section 2 compares against,
//! * [`TwoLevel`] — a generic two-level hierarchy,
//! * [`Instrumented`] — wraps any [`CacheSim`] to emit `dynex-obs` access
//!   events; the simulators above also accept a probe directly (see each
//!   type's `with_probe` constructor) for cause-attributed events,
//! * the [`CacheSim`] trait and [`run`] driver shared by every simulator in
//!   the workspace (including the dynamic-exclusion caches in `dynex-core`),
//! * the fast dm/de/opt kernel ([`batch_sweep`]) behind `--kernel batch`
//!   and `--kernel sweep` — N geometries through a single trace traversal,
//!   a single point being a one-point sweep — and the
//!   [`Kernel`]/[`ChunkedDecoder`] selection and decode machinery,
//! * the replacement-policy zoo ([`ReplacementPolicy`] + [`simulate_policy`])
//!   — first-class stateful policies with per-set lookup/victim/fill hooks,
//!   shipping Expected-Hit-Count ([`EhcPolicy`] / [`batch_ehc`]) and
//!   bandwidth-aware selective fill ([`BwCostPolicy`] / [`batch_bwcost`])
//!   next to trait re-expressions of the paper's dm/de/opt.
//!
//! All simulators are miss-rate models: they track contents and replacement
//! state, not timing, exactly like the paper's trace-driven evaluation.
//!
//! # Examples
//!
//! ```
//! use dynex_cache::{run, CacheConfig, CacheSim, DirectMapped};
//! use dynex_trace::Access;
//!
//! let config = CacheConfig::direct_mapped(1024, 4)?;
//! let mut cache = DirectMapped::new(config);
//! let stats = run(&mut cache, [Access::fetch(0x0), Access::fetch(0x0), Access::fetch(0x400)]);
//! assert_eq!(stats.hits(), 1);
//! assert_eq!(stats.misses(), 2);
//! # Ok::<(), dynex_cache::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod classify;
mod config;
mod direct;
mod fully;
mod hierarchy;
mod instrument;
mod kernel;
mod line_table;
mod min;
mod policy;
mod rng;
mod setassoc;
mod sim;
mod stats;
mod stream_buffer;
mod sweep;
mod victim;
mod write;

pub use batch::{decode_addrs, ChunkedDecoder, Kernel, KindFilter, CHUNK_LEN};
pub use classify::{classify_direct_mapped, classify_direct_mapped_optimal, MissClassification};
pub use config::{CacheConfig, ConfigError, Geometry};
pub use direct::DirectMapped;
pub use fully::FullyAssociative;
pub use hierarchy::{HierarchyStats, TwoLevel};
pub use instrument::Instrumented;
pub use kernel::{de_fsm_index, BatchDeResult, DeFsmRow, DE_FSM_TABLE};
pub use min::OptimalFullyAssociative;
pub use policy::{
    batch_bwcost, batch_ehc, simulate_policy, BwCostPolicy, DePolicy, DmPolicy, EhcPolicy,
    ReplacementPolicy, VictimChoice, EHC_HORIZON_FRAMES, NO_LINE, STARVE_LIMIT,
};
pub use rng::SplitMix64;
pub use setassoc::{Replacement, SetAssociative};
pub use sim::{run, run_addrs, AccessOutcome, CacheSim};
pub use stats::CacheStats;
pub use stream_buffer::{StreamBuffer, StreamBufferStats};
pub use sweep::{batch_sweep, batch_sweep_probed, SweepPoint, SweepPointResult, SweepPolicy};
pub use victim::VictimCache;
pub use write::{MemoryTraffic, WriteMode, WritebackCache};
