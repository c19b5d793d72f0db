//! Dynamic exclusion cache replacement — McFarling, ISCA 1992.
//!
//! Direct-mapped caches are fast but thrash when blocks needed in the same
//! program phase conflict for a line. *Dynamic exclusion* attaches a tiny
//! finite-state machine to each cache line — one **sticky** bit per line plus
//! one **hit-last** bit per memory block — that recognizes the common
//! loop-induced reference patterns and *bypasses* (passes to the CPU without
//! storing) blocks whose caching would only cause thrashing.
//!
//! The crate provides:
//!
//! * [`fsm`] — the pure state machine of the paper's Figure 1,
//! * [`DeCache`] — a direct-mapped cache governed by the FSM, with pluggable
//!   [`HitLastStore`]s ([`PerfectStore`], [`HashedStore`]),
//! * [`LastLineDeCache`] — the Section 6 structure for line sizes above one
//!   word (Figure 10's last-tag/last-line buffer),
//! * [`OptimalDirectMapped`] — the paper's "optimal direct-mapped cache":
//!   same placement, future-knowing replacement *and* bypass (Belady-style,
//!   two-pass),
//! * [`DeHierarchy`] — the Section 5 two-level organization with the three
//!   hit-last storage strategies ([`HitLastStrategy`]): `hashed`,
//!   `assume-hit`, `assume-miss`, including the L1/L2 exclusion that lowers
//!   L2 miss rates in Figures 8–9, and [`hierarchy_sweep`], which runs one
//!   L1 over many L2s and strategies (the Figures 7–9 study) in one pass,
//! * [`MultiStickyDeCache`] — the multi-level sticky extension the paper
//!   references (\[McF91a\]), used by the `ablate-sticky` experiment.
//!
//! # Quick start
//!
//! ```
//! use dynex::{DeCache, OptimalDirectMapped};
//! use dynex_cache::{run_addrs, CacheConfig, CacheSim, DirectMapped};
//!
//! // The within-loop conflict (a b)^10: a and b share one line.
//! let config = CacheConfig::direct_mapped(64, 4)?;
//! let trace: Vec<u32> = (0..20).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect();
//!
//! let mut dm = DirectMapped::new(config);
//! let mut de = DeCache::new(config);
//! let dm_stats = run_addrs(&mut dm, trace.iter().copied());
//! let de_stats = run_addrs(&mut de, trace.iter().copied());
//! let opt_stats = OptimalDirectMapped::simulate(config, trace.iter().copied());
//!
//! assert_eq!(dm_stats.misses(), 20);            // conventional: 100% misses
//! assert_eq!(opt_stats.misses(), 11);           // optimal: keep one block
//! assert!(de_stats.misses() <= opt_stats.misses() + 2); // DE: optimal + startup
//! # Ok::<(), dynex_cache::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod fsm;
mod hierarchy;
mod hitlast;
mod lastline;
mod linebuf;
mod lines;
mod optimal;
mod sticky;

pub use cache::{DeCache, DeStats};
pub use hierarchy::{
    hierarchy_sweep, DeHierarchy, DeHierarchyStats, HierarchyError, HierarchySweepPoint,
    HitLastStrategy,
};
pub use hitlast::{HashedStore, HitLastStore, PerfectStore, ProbedStore};
pub use lastline::LastLineDeCache;
pub use linebuf::{DeStreamBuffer, InstrRegisterDeCache};
pub use lines::{DeEvent, DeLines};
pub use optimal::OptimalDirectMapped;
pub use sticky::MultiStickyDeCache;
