//! `dynex-serve` — a batching, result-caching sweep service over the
//! [`dynex_experiments::api::SimulationRequest`] API.
//!
//! The service turns the workspace's offline sweep machinery into a
//! long-running process: clients `POST` request JSON to `/simulate` and get
//! the same bytes an offline `simcache` run would print (modulo framing) —
//! same content keys, same journal records, same statistics, for every
//! worker count. On top of plain execution it adds what only a resident
//! process can:
//!
//! * **single-flight coalescing** — concurrent identical requests run one
//!   simulation and share the result;
//! * **batching** — distinct requests queued behind a running batch are
//!   folded into the next plan, with no wait for more to arrive, and run
//!   on the dispatcher's standing [`dynex_engine::ResilientPool`],
//!   inheriting the engine's panic containment and watchdog;
//! * **result caching** — an exact LRU keyed by the journal content key,
//!   warm-startable from any `--resume` journal at boot, with a key memo
//!   of the same capacity that answers a repeated profile request without
//!   generating, decoding or hashing its trace;
//! * **explicit backpressure** — a bounded queue that answers `429` instead
//!   of buffering without bound, and a bounded pool of reused connection
//!   handlers behind a bounded accept queue that answers `503` (counted in
//!   `rejected-connections`) once both are full, so a warm server spawns
//!   no thread per request;
//! * **observability** — `/metrics` serves a `dynex-obs` registry snapshot,
//!   `/healthz` the drain state, and `POST /shutdown` drains gracefully.
//!
//! The HTTP layer is a deliberate minimum (hermetic workspace, no
//! third-party crates): HTTP/1.1, `Connection: close`, JSON bodies.
//!
//! # Scale-out
//!
//! For more cores than one process should own, the crate also provides the
//! sharded tier behind `dynex-serve --shards N`: a [`Router`] that places
//! requests onto N single-process servers with rendezvous hashing over
//! [`shard_for_key`] and relays shard responses byte-identically (see the
//! `router` module docs), and a [`ShardFleet`] supervisor that launches
//! the N worker processes and keeps them alive — a dead worker is
//! respawned on its slot with capped exponential backoff and comes back
//! warm from its per-suffix journal, while the router's per-shard circuit
//! breakers ([`BreakerState`]) fast-fail its keys in the interim. The two
//! halves share a [`ShardDirectory`] (live addresses, pids, respawn
//! counts, breaker states). The [`client`] module is the matching minimal
//! HTTP client, shared with the `dynex-load` harness.
//!
//! # Example
//!
//! ```no_run
//! use dynex_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // parks until POST /shutdown
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acceptor;
pub mod client;
mod directory;
mod http;
mod lru;
mod router;
mod server;
mod supervisor;

pub use client::HttpResponse;
pub use directory::{BreakerState, ShardDirectory};
pub use http::HttpRequest;
pub use lru::LruCache;
pub use router::{shard_for_key, Router, RouterConfig};
pub use server::{ServeConfig, ServeError, Server};
pub use supervisor::{backoff_delay, ShardFleet, BACKOFF_RESET_AFTER};
