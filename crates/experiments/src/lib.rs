//! Experiment harness regenerating every table and figure of McFarling's
//! ISCA '92 dynamic-exclusion paper.
//!
//! Each experiment is a function from a shared [`Workloads`] bundle (the ten
//! synthetic SPEC'89 traces) to a [`Table`] of results; the `experiments`
//! binary prints the tables and optionally writes CSVs. The per-experiment
//! index — which paper artifact each function reproduces, with which
//! parameters — lives in `DESIGN.md`; measured-vs-paper numbers live in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use dynex_experiments::{figures, Workloads};
//!
//! // A tiny budget keeps doctests fast; real runs use millions.
//! let workloads = Workloads::generate(20_000);
//! let table = figures::fig3(&workloads);
//! assert_eq!(table.n_rows(), 10); // one row per benchmark
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod figures;
mod runner;
mod table;
mod workloads;

pub use runner::{triple, triple_lastline, triple_to_json, triples_to_jsonl, Triple};
pub use table::Table;
pub use workloads::Workloads;

/// The cache sizes (KB) swept by the size-axis figures (4, 5, 12, 14, 15).
pub const SIZE_SWEEP_KB: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The line sizes (bytes) swept by Figure 11.
pub const LINE_SWEEP_BYTES: [u32; 5] = [4, 8, 16, 32, 64];

/// The L2:L1 size ratios swept by Figures 7–9.
pub const L2_RATIO_SWEEP: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The paper's headline instruction cache size: 32KB.
pub const HEADLINE_SIZE: u32 = 32 * 1024;
