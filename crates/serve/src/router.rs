//! The shard router: a thin front tier that places requests onto N
//! single-process [`crate::Server`] shards and relays their responses
//! byte-identically.
//!
//! # Placement
//!
//! Each request is hashed to a shard with **rendezvous (highest-random-
//! weight) hashing** over [`SimulationRequest::routing_key`] — the cheap
//! FNV-1a key over the request fields that determine the PR 3 content key,
//! computable without decoding the trace. Rendezvous hashing gives the two
//! properties the satellite tests pin down: placement is balanced (each
//! shard wins ≈ 1/N of the key space), and growing the fleet from N to N+1
//! shards remaps only the ≈ 1/(N+1) of keys whose new maximum weight is the
//! new shard — every other key keeps its shard, and its shard's warm LRU.
//!
//! # Relay contract
//!
//! The router never rewrites a shard response: status, body bytes, and the
//! shard's `X-Dynex-Trace` header are forwarded verbatim, so a client
//! cannot distinguish a routed response from a direct one. The router
//! answers from its own trace id only for requests that never reached a
//! shard: parse failures (`400`) and dead shards (`503`, with the shard id
//! in the JSON body — loud, attributable failure instead of a silent
//! retry-elsewhere that would split the cache).
//!
//! # Fault handling
//!
//! Shard addresses come from a live [`ShardDirectory`] (shared with the
//! [`crate::ShardFleet`] supervisor when one is running), and each slot
//! carries a circuit breaker ([`BreakerState`]): a relay transport failure
//! opens it (counted in `router-breaker-open`) and reports the failure to
//! the supervisor; while open, the slot's keys fast-fail `503` without a
//! socket touch; a background-probe success moves it to half-open, and the
//! next successfully relayed request closes it. A keyed request that hits
//! a transport error gets **one** bounded retry — against the *same*
//! shard, after re-reading the slot's address, so a just-respawned worker
//! picks the request up. Never another shard: simulations are
//! deterministic and content-keyed, and re-routing would split the warm
//! cache (the PR 7 invariant).
//!
//! # Connections
//!
//! The router shares the server's acceptor and handler pool (the
//! `acceptor` module): reused handler threads, a bounded accept queue, and
//! a structured `503` counted in `router-rejected-connections` once both
//! are full. A router handler waits on a shard handler for each relay, so
//! the router's pool cap is the sum of its shards' pools, read once at
//! boot from each shard's `handler-cap` gauge.
//!
//! # Aggregation
//!
//! `GET /metrics` fans out to every shard, merges the per-shard registries
//! ([`MetricsRegistry::merge`]: counters summed, latency histograms
//! bucket-merged), rebuilds the cross-fleet `latency_summary` from the
//! merged histograms, and appends the router's own `router-*` counters and
//! a per-shard reachability table. `GET /healthz` reports the background
//! health-probe view of the fleet without blocking on it.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynex_engine::fnv1a;
use dynex_experiments::api::SimulationRequest;
use dynex_obs::json::{self, Json};
use dynex_obs::span::{self, StageStats};
use dynex_obs::MetricsRegistry;

use crate::acceptor::{self, lock_or_recover, Acceptor, Service};
use crate::client::{self, HttpResponse};
use crate::directory::{BreakerState, ShardDirectory};
use crate::http::{read_request, write_response_relayed, write_response_traced, HttpRequest};

/// Finalizing bit mixer (the splitmix64/murmur3 finalizer). FNV-1a alone
/// avalanches poorly in its low bits for short inputs; rendezvous hashing
/// compares per-shard weights, so weak mixing would skew placement.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Rendezvous (highest-random-weight) shard placement for a routing key.
///
/// Deterministic: every router instance (and every test) agrees on the
/// placement of a key for a given shard count.
///
/// # Panics
///
/// Panics if `shards` is zero — a router with no shards is a configuration
/// error, caught at [`Router::start`].
pub fn shard_for_key(key: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard_for_key needs at least one shard");
    let key_hash = fnv1a(key.as_bytes());
    (0..shards)
        .max_by_key(|&shard| mix64(key_hash ^ mix64(shard as u64 + 1)))
        .expect("non-empty shard range")
}

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Interface to bind (default loopback).
    pub host: String,
    /// TCP port to bind; 0 picks an ephemeral port (see [`Router::addr`]).
    pub port: u16,
    /// The shard servers to front, in shard-id order. Must be non-empty.
    pub shards: Vec<SocketAddr>,
    /// Transport timeout for relaying one `/simulate` to a shard (connect,
    /// and each read/write). Generous: a shard enforces its own request
    /// deadlines; this bound only catches a dead or wedged shard.
    pub relay_timeout: Duration,
    /// Transport timeout for health probes and metrics fan-out.
    pub probe_timeout: Duration,
    /// How often the background health thread probes each shard.
    pub health_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            shards: Vec::new(),
            relay_timeout: Duration::from_secs(60),
            probe_timeout: Duration::from_secs(2),
            health_interval: Duration::from_millis(500),
        }
    }
}

/// State shared between the acceptor, handlers, and the health thread.
struct RouterState {
    /// Live shard addresses, pids, respawn counts, and breaker states —
    /// shared with the supervising [`crate::ShardFleet`] when one runs.
    directory: Arc<ShardDirectory>,
    metrics: Mutex<MetricsRegistry>,
    draining: AtomicBool,
    /// Wakes the health thread early on drain.
    drain_signal: (Mutex<bool>, Condvar),
    listen_addr: SocketAddr,
    relay_timeout: Duration,
    probe_timeout: Duration,
}

impl RouterState {
    fn count(&self, name: &str) {
        lock_or_recover(&self.metrics).add(name, 1);
    }

    /// Trips the slot's breaker open (any state), counting the event once
    /// per actual transition — concurrent failing handlers race on a CAS.
    fn open_breaker(&self, shard: usize) {
        for from in [BreakerState::Closed, BreakerState::HalfOpen] {
            if self
                .directory
                .breaker_transition(shard, from, BreakerState::Open)
            {
                self.count("router-breaker-open");
                return;
            }
        }
    }
}

impl Service for RouterState {
    const DRAINING: &'static str = r#"{"error":"router is draining"}"#;
    const REJECTED: &'static str = "router-rejected-connections";
    const HANDLERS: &'static str = "router-handler-threads";

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn metrics(&self) -> &Mutex<MetricsRegistry> {
        &self.metrics
    }

    fn serve(state: &Arc<RouterState>, stream: TcpStream, _accepted: Instant) {
        handle_connection(state, stream);
    }
}

/// A shard's handler-pool size, as its `handler-cap` gauge advertises it;
/// a shard that does not answer counts at the default server's size.
fn shard_handlers(addr: SocketAddr, timeout: Duration) -> usize {
    client::call(addr, "GET", "/metrics", "", timeout)
        .ok()
        .filter(|response| response.status == 200)
        .and_then(|response| json::parse(&response.body).ok())
        .and_then(|doc| MetricsRegistry::from_json(&doc).ok())
        .map(|registry| registry.counter("handler-cap") as usize)
        .filter(|&handlers| handlers > 0)
        .unwrap_or_else(|| {
            let defaults = crate::ServeConfig::default();
            crate::server::handler_cap(defaults.queue_capacity, dynex_engine::default_jobs())
        })
}

/// One `{"error":…}` body from the router itself (the request never
/// reached a shard), stamped with the router-side trace id.
fn error_body(message: &str, trace_id: u64) -> String {
    format!(
        r#"{{"error":"{}","trace_id":"{}"}}"#,
        json::escape(message),
        span::trace_hex(trace_id)
    )
}

/// A running shard router.
///
/// Dropping the handle does *not* stop the router; call
/// [`Router::shutdown`] then [`Router::join`] (or hit `POST /shutdown`,
/// which also drains every shard).
pub struct Router {
    state: Arc<RouterState>,
    addr: SocketAddr,
    acceptor: Acceptor,
    health: JoinHandle<()>,
}

impl Router {
    /// Binds the socket over a fixed shard list (a directory nobody
    /// updates) and spawns the acceptor and health-probe threads. For a
    /// supervised fleet whose addresses change on respawn, use
    /// [`Router::start_with`].
    pub fn start(config: RouterConfig) -> Result<Router, crate::ServeError> {
        let directory = Arc::new(ShardDirectory::new(&config.shards));
        Router::start_with(config, directory)
    }

    /// Binds the socket over a live [`ShardDirectory`] (shared with a
    /// [`crate::ShardFleet`] supervisor, whose respawns swap slot
    /// addresses under the router) and spawns the acceptor and
    /// health-probe threads. `config.shards` is ignored — the directory is
    /// the address authority.
    pub fn start_with(
        config: RouterConfig,
        directory: Arc<ShardDirectory>,
    ) -> Result<Router, crate::ServeError> {
        if directory.is_empty() {
            return Err(crate::ServeError::Bind(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            )));
        }
        span::enable_latency();
        let listener = TcpListener::bind((config.host.as_str(), config.port))
            .map_err(crate::ServeError::Bind)?;
        let addr = listener.local_addr().map_err(crate::ServeError::Bind)?;

        let mut metrics = MetricsRegistry::new();
        for name in [
            "router-requests-total",
            "router-routed",
            "router-shard-errors",
            "router-health-probes",
            "router-breaker-open",
            "router-relay-retries",
            "router-rejected-connections",
            "router-handler-threads",
        ] {
            metrics.add(name, 0);
        }
        for shard in 0..directory.len() {
            metrics.add(&format!("router-routed-shard-{shard}"), 0);
        }

        let state = Arc::new(RouterState {
            directory,
            metrics: Mutex::new(metrics),
            draining: AtomicBool::new(false),
            drain_signal: (Mutex::new(false), Condvar::new()),
            listen_addr: addr,
            relay_timeout: config.relay_timeout,
            probe_timeout: config.probe_timeout,
        });

        let health = {
            let state = Arc::clone(&state);
            let interval = config.health_interval;
            std::thread::spawn(move || health_loop(state, interval))
        };
        // A router handler waits on one shard's handler for each relay, so
        // the router holds as many as its shards do together.
        let handlers = (0..state.directory.len())
            .map(|shard| shard_handlers(state.directory.addr(shard), state.probe_timeout))
            .sum();
        let acceptor = acceptor::start(Arc::clone(&state), listener, handlers);

        Ok(Router {
            state,
            addr,
            acceptor,
            health,
        })
    }

    /// The bound address (the real port when `port: 0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reads one router counter (e.g. `"router-routed"`) or gauge (e.g.
    /// `"router-handler-threads"`).
    pub fn counter(&self, name: &str) -> u64 {
        lock_or_recover(&self.state.metrics).counter(name)
    }

    /// The breaker view of one shard: `true` while its circuit is closed
    /// (relaying normally), `false` once a probe or relay failure opened
    /// it and until a relayed request closes it again.
    pub fn shard_healthy(&self, shard: usize) -> bool {
        self.state.directory.breaker(shard) == BreakerState::Closed
    }

    /// The live shard directory the router routes over.
    pub fn directory(&self) -> Arc<ShardDirectory> {
        Arc::clone(&self.state.directory)
    }

    /// Starts a graceful drain of the *router* (stop accepting, finish
    /// in-flight relays). Does not touch the shards — that is `POST
    /// /shutdown`'s job, so an embedder can drain the front tier while
    /// keeping the fleet up.
    pub fn shutdown(&self) {
        initiate_drain(&self.state);
    }

    /// Blocks until the router has drained, then joins its threads.
    pub fn join(self) {
        self.acceptor.join();
        self.health.join().expect("router health thread");
    }
}

/// Flips the draining flag, wakes the health thread, and unblocks the
/// acceptor's blocking `accept` with a throwaway self-connection.
fn initiate_drain(state: &RouterState) {
    state.draining.store(true, Ordering::SeqCst);
    let (flag, signal) = &state.drain_signal;
    *lock_or_recover(flag) = true;
    signal.notify_all();
    let _ = TcpStream::connect(state.listen_addr);
}

/// Background shard health probe: `GET /healthz` on every shard, each
/// `interval`, until drain. Probe outcomes drive the breakers: a failure
/// opens the slot's circuit, a success on an open circuit moves it to
/// half-open (the next relayed request decides whether it closes).
fn health_loop(state: Arc<RouterState>, interval: Duration) {
    let (flag, signal) = &state.drain_signal;
    loop {
        for shard in 0..state.directory.len() {
            let addr = state.directory.addr(shard);
            let alive = client::call(addr, "GET", "/healthz", "", state.probe_timeout)
                .map(|response| response.status == 200)
                .unwrap_or(false);
            if alive {
                state.directory.breaker_transition(
                    shard,
                    BreakerState::Open,
                    BreakerState::HalfOpen,
                );
            } else {
                state.open_breaker(shard);
            }
        }
        state.count("router-health-probes");
        let mut draining = lock_or_recover(flag);
        while !*draining {
            let (guard, timed_out) = signal
                .wait_timeout(draining, interval)
                .unwrap_or_else(PoisonError::into_inner);
            draining = guard;
            if timed_out.timed_out() {
                break;
            }
        }
        if *draining {
            return;
        }
    }
}

/// How a routed request gets answered on the wire.
enum Reply {
    /// The router speaks for itself (health, metrics, errors): status,
    /// body, and the router's own trace id.
    Own(u16, String),
    /// A shard response to forward byte-identically.
    Relay(HttpResponse),
}

/// Serves one connection: parse, route or relay, respond, close.
fn handle_connection(state: &Arc<RouterState>, mut stream: TcpStream) {
    let trace_id = span::fresh_trace_id();
    let _request = span::root_span("router.request", trace_id);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(message) => {
            let _ =
                write_response_traced(&mut stream, 400, &error_body(&message, trace_id), trace_id);
            return;
        }
    };
    state.count("router-requests-total");
    let _respond = span::span("router.respond");
    match route(state, &request, trace_id) {
        Reply::Own(status, body) => {
            let _ = write_response_traced(&mut stream, status, &body, trace_id);
        }
        Reply::Relay(response) => {
            let _ = write_response_relayed(
                &mut stream,
                response.status,
                &response.body,
                response.trace.as_deref(),
            );
        }
    }
}

/// Maps a parsed request to a [`Reply`].
fn route(state: &Arc<RouterState>, request: &HttpRequest, trace_id: u64) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Reply::Own(200, healthz_body(state)),
        ("GET", "/metrics") => Reply::Own(200, metrics_body(state)),
        ("POST", "/shutdown") => {
            // Drain the whole deployment. The directory latch comes first
            // so a supervising fleet treats the worker exits below as
            // intentional instead of respawning them mid-drain; then every
            // shard (best effort — a dead shard cannot block the drain),
            // then the router.
            state.directory.set_draining();
            for shard in 0..state.directory.len() {
                let addr = state.directory.addr(shard);
                let _ = client::call(addr, "POST", "/shutdown", "", state.probe_timeout);
            }
            initiate_drain(state);
            Reply::Own(200, r#"{"status":"draining"}"#.to_owned())
        }
        ("POST", "/simulate") => handle_simulate(state, &request.body, trace_id),
        (_, "/healthz" | "/metrics" | "/shutdown" | "/simulate") => Reply::Own(
            405,
            error_body(
                &format!("method {} not allowed on {}", request.method, request.path),
                trace_id,
            ),
        ),
        (_, path) => Reply::Own(404, error_body(&format!("no route for {path}"), trace_id)),
    }
}

/// The router `/healthz` body: drain state plus the breaker view of the
/// fleet — per shard its address, worker pid (0 when the shards are not
/// supervised processes), respawn count, and breaker state, so operators
/// and the chaos harness see fleet health without grepping supervisor
/// logs. Reads cached directory state — never blocks on a shard.
fn healthz_body(state: &Arc<RouterState>) -> String {
    let mut down = 0usize;
    let mut shards = String::new();
    for shard in 0..state.directory.len() {
        let addr = state.directory.addr(shard);
        let breaker = state.directory.breaker(shard);
        let healthy = breaker == BreakerState::Closed;
        if !healthy {
            down += 1;
        }
        if shard > 0 {
            shards.push(',');
        }
        shards.push_str(&format!(
            r#"{{"id":{shard},"addr":"{addr}","healthy":{healthy},"pid":{},"respawns":{},"breaker":"{}"}}"#,
            state.directory.pid(shard),
            state.directory.respawns(shard),
            breaker.as_str()
        ));
    }
    let status = if state.draining.load(Ordering::SeqCst) {
        "draining"
    } else if down > 0 {
        "degraded"
    } else {
        "ok"
    };
    format!(r#"{{"status":"{status}","shards":[{shards}]}}"#)
}

/// The aggregate `/metrics` body: every reachable shard's registry merged
/// (counters summed, histograms bucket-merged), a `latency_summary`
/// rebuilt from the merged per-stage histograms, the router's own
/// `router-*` counters, and a per-shard merge status table.
fn metrics_body(state: &Arc<RouterState>) -> String {
    let mut merged = MetricsRegistry::new();
    merged.merge(&lock_or_recover(&state.metrics));
    // Fleet-recovery telemetry lives in the directory (the supervisor
    // writes it); fold it in so one /metrics scrape sees the whole story.
    merged.set("shard-respawns", state.directory.total_respawns());
    merged.put_histogram("recovery-us", state.directory.recovery_histogram());
    let mut stage_totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut shard_rows = String::new();
    for shard in 0..state.directory.len() {
        let addr = state.directory.addr(shard);
        let fetched = client::call(addr, "GET", "/metrics", "", state.probe_timeout)
            .ok()
            .filter(|response| response.status == 200)
            .and_then(|response| json::parse(&response.body).ok())
            .and_then(|doc| {
                let registry = MetricsRegistry::from_json(&doc).ok()?;
                // The summary block carries the per-stage totals the
                // histograms alone cannot reconstruct.
                if let Some(Json::Obj(summary)) = doc.get("latency_summary") {
                    for (stage, stats) in summary {
                        let total = stats.get("total_us").and_then(Json::as_u64).unwrap_or(0);
                        *stage_totals.entry(stage.clone()).or_insert(0) += total;
                    }
                }
                Some(registry)
            });
        let ok = match fetched {
            Some(registry) => {
                merged.merge(&registry);
                true
            }
            None => {
                state.count("router-shard-errors");
                false
            }
        };
        if shard > 0 {
            shard_rows.push(',');
        }
        shard_rows.push_str(&format!(
            r#"{{"id":{shard},"addr":"{addr}","merged":{ok}}}"#
        ));
    }

    // Rebuild the fleet-wide latency summary from the merged histograms.
    let mut stages: BTreeMap<String, StageStats> = BTreeMap::new();
    for (name, histogram) in merged.histograms() {
        if let Some(stage) = name.strip_prefix("latency-us/") {
            stages.insert(
                stage.to_owned(),
                StageStats {
                    histogram: histogram.clone(),
                    total_us: stage_totals.get(stage).copied().unwrap_or(0),
                },
            );
        }
    }
    let mut body = dynex_obs::export::metrics_json(&merged, None);
    body.pop();
    body.push_str(",\"latency_summary\":");
    body.push_str(&span::summary_json(&stages));
    body.push_str(&format!(",\"shards\":[{shard_rows}]}}"));
    body
}

/// The shard-unavailable `503` body (router-origin: carries the shard id
/// and the router's trace id, never shard bytes).
fn unavailable_body(shard: usize, message: &str, trace_id: u64) -> String {
    format!(
        r#"{{"error":"shard {shard} unavailable: {}","shard":{shard},"trace_id":"{}"}}"#,
        json::escape(message),
        span::trace_hex(trace_id)
    )
}

/// The `/simulate` relay: validate, place, forward, fail loudly.
///
/// Fault path (module docs): an open breaker fast-fails without a socket
/// touch; a transport error earns one same-shard retry against the
/// slot's *current* address (a respawn may have swapped it mid-flight);
/// two transport errors open the breaker and wake the supervisor.
fn handle_simulate(state: &Arc<RouterState>, body: &str, trace_id: u64) -> Reply {
    let request = match SimulationRequest::from_json(body) {
        Ok(request) => request,
        Err(e) => return Reply::Own(400, error_body(&e.to_string(), trace_id)),
    };
    let key = match request.routing_key() {
        Ok(key) => key,
        Err(e) => return Reply::Own(500, error_body(&e.to_string(), trace_id)),
    };
    let shard = shard_for_key(&key, state.directory.len());
    state.count("router-routed");
    state.count(&format!("router-routed-shard-{shard}"));
    if state.directory.breaker(shard) == BreakerState::Open {
        state.count("router-shard-errors");
        return Reply::Own(503, unavailable_body(shard, "circuit open", trace_id));
    }
    // The original body is forwarded, not a re-serialization: the shard
    // parses and validates exactly what the client sent.
    let mut last_error = String::new();
    for attempt in 0..2 {
        if attempt > 0 {
            state.count("router-relay-retries");
        }
        let addr = state.directory.addr(shard);
        match client::call(addr, "POST", "/simulate", body, state.relay_timeout) {
            Ok(response) => {
                // A relayed response is authoritative evidence the worker
                // serves: close the breaker (half-open → closed on the
                // probe-recovery path, and heal any racing open).
                state.directory.set_breaker(shard, BreakerState::Closed);
                return Reply::Relay(response);
            }
            Err(message) => last_error = message,
        }
    }
    // Loud, attributable failure: the shard id lands in the error body so
    // an operator (or the load harness's error taxonomy) sees *which*
    // shard died, the breaker opens without waiting for the next probe,
    // and the supervisor is nudged to check the worker now.
    state.open_breaker(shard);
    state.directory.report_failure(shard);
    state.count("router-shard-errors");
    Reply::Own(503, unavailable_body(shard, &last_error, trace_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_engine::job_key;

    /// 10k synthetic content keys shaped like the real ones (16-hex
    /// `job_key` digests).
    fn synthetic_keys() -> Vec<String> {
        (0..10_000)
            .map(|i| job_key(&["simcache/v1", "de", "all", &format!("key {i}")]))
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let key = "0123456789abcdef";
        assert_eq!(shard_for_key(key, 1), 0);
        for shards in 1..8 {
            let place = shard_for_key(key, shards);
            assert!(place < shards);
            assert_eq!(place, shard_for_key(key, shards), "deterministic");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_a_loud_error() {
        shard_for_key("k", 0);
    }

    #[test]
    fn placement_balances_within_1_5x_of_mean() {
        // Satellite: over 10k synthetic content keys, no shard may hold
        // more than 1.5x the mean — rendezvous over a well-mixed hash
        // keeps the spread far tighter, but 1.5x is the contract.
        for shards in [2usize, 3, 4, 8] {
            let mut counts = vec![0u64; shards];
            for key in synthetic_keys() {
                counts[shard_for_key(&key, shards)] += 1;
            }
            let mean = 10_000.0 / shards as f64;
            for (shard, &count) in counts.iter().enumerate() {
                assert!(
                    (count as f64) <= 1.5 * mean,
                    "shard {shard}/{shards} holds {count} keys (mean {mean})"
                );
                assert!(count > 0, "shard {shard}/{shards} is empty");
            }
        }
    }

    #[test]
    fn adding_a_shard_remaps_only_one_over_n_keys() {
        // Satellite: growing N -> N+1 must remap ~1/(N+1) of keys, and
        // rendezvous gives the strong form — a remapped key can only move
        // TO the new shard (its old weights are unchanged).
        for old in [2usize, 4] {
            let new = old + 1;
            let mut moved = 0u64;
            for key in synthetic_keys() {
                let before = shard_for_key(&key, old);
                let after = shard_for_key(&key, new);
                if before != after {
                    moved += 1;
                    assert_eq!(
                        after,
                        new - 1,
                        "key {key} moved between surviving shards ({before} -> {after})"
                    );
                }
            }
            // Binomial(10k, 1/new): a +-30% band is ~20 sigma.
            let expected = 10_000.0 / new as f64;
            assert!(
                (moved as f64) > 0.7 * expected && (moved as f64) < 1.3 * expected,
                "{old}->{new} shards moved {moved} keys (expected ~{expected})"
            );
        }
    }

    #[test]
    fn router_refuses_to_start_with_no_shards() {
        let Err(err) = Router::start(RouterConfig::default()) else {
            panic!("router started with an empty shard list");
        };
        assert!(err.to_string().contains("at least one shard"), "{err}");
    }
}
