//! Trace-driven cache simulation substrate for the `dynex` workspace.
//!
//! This crate provides everything McFarling's ISCA '92 dynamic-exclusion
//! study needs *underneath* the contribution itself:
//!
//! * [`CacheConfig`] / [`Geometry`] — size/line/associativity parameters and
//!   the derived index/tag arithmetic,
//! * [`DirectMapped`] — the baseline cache of the paper,
//! * [`SetAssociative`] and [`FullyAssociative`] — LRU comparison
//!   organizations, the second also the conflict-free shadow of Hill's
//!   three-C split ([`classify_direct_mapped`]),
//! * [`VictimCache`] and [`StreamBuffer`] — the related-work hardware from
//!   Jouppi \[Jou90\] that Section 2 compares against,
//! * [`TwoLevel`] — a generic two-level hierarchy,
//! * the [`CacheSim`] trait and [`run`] driver shared by every simulator in
//!   the workspace (including the dynamic-exclusion caches in `dynex-core`),
//! * the fast kernel for every direct-mapped policy ([`batch_sweep`])
//!   behind `--kernel batch` and `--kernel sweep` — N geometries through a
//!   single trace traversal, a single point being a one-point sweep — and
//!   the [`Kernel`] selection and the [`decode_into`] decode machinery,
//! * the replacement-policy zoo ([`ReplacementPolicy`] + [`simulate_policy`])
//!   — first-class stateful direct-mapped policies with per-set
//!   lookup/install/fill hooks: Expected-Hit-Count ([`EhcPolicy`]) and
//!   bandwidth-aware selective fill ([`BwCostPolicy`]), whose fast path is
//!   the sweep kernel too. The paper's own dm/de/opt are not trait
//!   policies: each has one spec simulator ([`DirectMapped`] here,
//!   `DeCache` and `OptimalDirectMapped` in `dynex-core`), and [`DeStats`]
//!   carries DE's load/bypass split from either them or the sweep kernel.
//!
//! All simulators are miss-rate models: they track contents and replacement
//! state, not timing, exactly like the paper's trace-driven evaluation. The
//! simulators that emit `dynex-obs` events take their probe at
//! construction (each type's `with_probe`), so every event names its cause.
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
mod kernel;
mod line_table;
mod policy;
mod rng;
mod setassoc;
mod sim;
mod stats;
mod stream_buffer;
mod sweep;
mod victim;

pub use batch::{decode_addrs, decode_into, Kernel, KindFilter, CHUNK_LEN};
pub use classify::{classify_direct_mapped, MissClassification};
pub use config::{CacheConfig, ConfigError, Geometry};
pub use direct::DirectMapped;
pub use fully::FullyAssociative;
pub use hierarchy::{HierarchyStats, TwoLevel};
pub use kernel::{de_fsm_index, DeFsmRow, DE_FSM_TABLE};
pub use policy::{
    simulate_policy, BwCostPolicy, EhcPolicy, ReplacementPolicy, EHC_HORIZON_FRAMES, STARVE_LIMIT,
};
pub use rng::SplitMix64;
pub use setassoc::SetAssociative;
pub use sim::{run, run_addrs, AccessOutcome, CacheSim};
pub use stats::{CacheStats, DeStats};
pub use stream_buffer::{StreamBuffer, StreamBufferStats};
pub use sweep::{batch_sweep, batch_sweep_probed, SweepPoint, SweepPolicy};
pub use victim::VictimCache;
