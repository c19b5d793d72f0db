//! The sweep service: accepts [`SimulationRequest`] JSON over HTTP, batches
//! distinct requests onto the engine's resilient worker pool, coalesces
//! concurrent duplicates into one simulation, and serves repeats from an
//! LRU result cache keyed by the journal content key.
//!
//! # Concurrency architecture
//!
//! One acceptor thread hands each connection to a pool of long-lived
//! handler threads (the `acceptor` module, shared with the router). The
//! pool grows on demand up to a cap derived from `queue_capacity`, `jobs`
//! and [`MAX_BATCH`] (see [`handler_cap`]); connections beyond it wait in
//! a bounded accept queue, and beyond that are refused with a `503`
//! counted in `rejected-connections`. Handlers never simulate: they
//! resolve the request to its content key, then either answer from the
//! result cache, join an in-flight computation (single-flight), or enqueue
//! a job on a *bounded* queue and wait. A single dispatcher thread takes
//! the first queued job, folds in whatever else is already queued (jobs
//! that arrive while a batch runs share the next one), and executes the
//! plan on a [`dynex_engine::ResilientPool`] it keeps for its whole life —
//! so the worker count, watchdog deadline, and panic containment are
//! exactly the engine's resilient sweep machinery, without a thread
//! spawn per batch.
//! A full queue is reported to the client as `429 Too Many Requests`
//! immediately (backpressure is explicit, never an unbounded buffer).
//! Once warm, no request spawns a thread.
//!
//! Resolving a request to its content key means loading and hashing its
//! trace. For profile sources, whose trace the request fully determines, a
//! bounded key memo remembers routing key → content key, so a repeated
//! profile request reaches the result cache without loading anything.
//!
//! Determinism carries through from the engine: for a given request body
//! the response JSON is byte-identical for every `jobs` setting, every
//! batch composition, and whether the result came from the simulator, the
//! cache, or a journal warm start.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynex_engine::{
    default_jobs, JobFailure, Journal, Kernel, Resilience, ResilientPool, SyncPolicy,
};
use dynex_experiments::api::{
    self, LoadedTrace, SimulationRequest, SimulationResponse, TraceSource,
};
use dynex_obs::json;
use dynex_obs::span::{self, SpanCtx};
use dynex_obs::MetricsRegistry;

use crate::acceptor::{self, lock_or_recover, Acceptor, Service};
use crate::http::{read_request, write_response_traced, HttpRequest};
use crate::lru::LruCache;

/// Largest number of queued requests folded into one engine plan.
pub(crate) const MAX_BATCH: usize = 64;

/// Handler threads a server may hold: one for every leader that can be
/// waiting on the dispatcher — `queue_capacity` queued, plus as many again
/// (at most [`MAX_BATCH`]) in the running batch — and `jobs` more that keep
/// parsing requests and answering cache hits meanwhile.
pub(crate) fn handler_cap(queue_capacity: usize, jobs: usize) -> usize {
    jobs + queue_capacity + queue_capacity.min(MAX_BATCH)
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default loopback).
    pub host: String,
    /// TCP port to bind; 0 picks an ephemeral port (see [`Server::addr`]).
    pub port: u16,
    /// Worker threads for the simulation pool; 0 means
    /// [`dynex_engine::default_jobs`]. Responses are bit-identical for
    /// every value.
    pub jobs: usize,
    /// Bounded depth of the simulation queue; a full queue rejects with
    /// `429`. Clamped to at least 1.
    pub queue_capacity: usize,
    /// LRU result-cache capacity in entries; 0 disables result caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that carry no `deadline_ms` of their
    /// own; `None` waits forever.
    pub default_deadline: Option<Duration>,
    /// A `simcache --resume` / `experiments --resume` journal to warm the
    /// result cache from at boot; fresh results are appended to it.
    pub warm_journal: Option<PathBuf>,
    /// How far each journal append is pushed toward stable storage before
    /// the response is sent: [`SyncPolicy::Flush`] (the default) survives
    /// a process kill, [`SyncPolicy::Fsync`] also survives power loss.
    pub journal_sync: SyncPolicy,
    /// Test hook: artificial delay inside every simulation job. Keeps
    /// backpressure and coalescing tests deterministic without relying on
    /// workload size. Zero (the default) for production.
    pub inject_sim_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            host: "127.0.0.1".to_owned(),
            port: 0,
            jobs: 0,
            queue_capacity: 64,
            cache_capacity: 1024,
            default_deadline: None,
            warm_journal: None,
            journal_sync: SyncPolicy::Flush,
            inject_sim_delay: Duration::ZERO,
        }
    }
}

/// Startup failures.
#[derive(Debug)]
pub enum ServeError {
    /// The listen socket could not be bound.
    Bind(std::io::Error),
    /// The warm-start journal could not be opened.
    Journal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "cannot bind listen socket: {e}"),
            ServeError::Journal(e) => write!(f, "cannot open warm-start journal: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How one simulation attempt ended, as seen by the clients awaiting it.
#[derive(Debug, Clone)]
enum FlightError {
    /// The engine watchdog marked the job overdue (`504`).
    TimedOut(String),
    /// The job panicked or failed internally (`500`).
    Failed(String),
    /// The leader could not enqueue the job (queue full or draining);
    /// the status (`429`/`503`) is relayed to every joiner.
    Rejected(u16, String),
}

type FlightResult = Result<SimulationResponse, FlightError>;

/// One in-flight computation that any number of handler threads can await.
struct Flight {
    slot: Mutex<Option<FlightResult>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Publishes the result and wakes every waiter.
    fn fill(&self, result: FlightResult) {
        *lock_or_recover(&self.slot) = Some(result);
        self.ready.notify_all();
    }

    /// Blocks until the flight completes or `deadline` passes.
    fn wait(&self, deadline: Option<Duration>) -> Result<FlightResult, Duration> {
        let start = Instant::now();
        let mut slot = lock_or_recover(&self.slot);
        loop {
            if let Some(result) = slot.as_ref() {
                return Ok(result.clone());
            }
            match deadline {
                None => {
                    slot = self
                        .ready
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                Some(limit) => {
                    let Some(remaining) = limit.checked_sub(start.elapsed()) else {
                        return Err(limit);
                    };
                    slot = self
                        .ready
                        .wait_timeout(slot, remaining)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }
}

/// One queued unit of work for the dispatcher.
struct SimJob {
    key: String,
    request: SimulationRequest,
    trace: LoadedTrace,
    flight: Arc<Flight>,
    deadline: Option<Duration>,
    /// The leader's request span, so the simulate span executed on a pool
    /// worker thread still parents into the originating trace. `None` below
    /// [`dynex_obs::TraceLevel::Full`].
    ctx: Option<SpanCtx>,
}

/// State shared between the acceptor, handlers, and the dispatcher.
struct State {
    cache: Mutex<LruCache<SimulationResponse>>,
    /// Routing key → content key of profile requests seen before, so a
    /// repeat reaches `cache` without generating, decoding or hashing its
    /// trace. Bounded like `cache` (same capacity); path sources never
    /// enter, because a file can change under the same path.
    key_memo: Mutex<LruCache<String>>,
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    queue: Mutex<Option<SyncSender<SimJob>>>,
    metrics: Mutex<MetricsRegistry>,
    journal: Mutex<Option<Journal>>,
    draining: AtomicBool,
    default_deadline: Option<Duration>,
    /// The bound listen address, for the drain self-poke.
    listen_addr: SocketAddr,
}

impl State {
    fn count(&self, name: &str) {
        lock_or_recover(&self.metrics).add(name, 1);
    }
}

impl Service for State {
    const DRAINING: &'static str = r#"{"error":"service is draining"}"#;
    const REJECTED: &'static str = "rejected-connections";
    const HANDLERS: &'static str = "handler-threads";

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn metrics(&self) -> &Mutex<MetricsRegistry> {
        &self.metrics
    }

    fn serve(state: &Arc<State>, stream: TcpStream, accepted: Instant) {
        handle_connection(state, stream, accepted);
    }
}

/// One `{"error":…}` body, stamped with the request's trace id so a client
/// can correlate a failure against a `--trace-out` span stream.
fn error_body(message: &str, trace_id: u64) -> String {
    format!(
        r#"{{"error":"{}","trace_id":"{}"}}"#,
        json::escape(message),
        span::trace_hex(trace_id)
    )
}

/// A running sweep service.
///
/// Dropping the handle does *not* stop the service; call
/// [`Server::shutdown`] then [`Server::join`] (or hit `POST /shutdown`).
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    acceptor: Acceptor,
    dispatcher: JoinHandle<()>,
}

impl Server {
    /// Binds the socket, warms the cache, and spawns the service threads.
    pub fn start(config: ServeConfig) -> Result<Server, ServeError> {
        // Per-stage latency histograms are part of the service's metrics
        // contract, so the tracing layer runs at least at Latency level for
        // the life of the process. A pre-installed JSONL sink (the binary's
        // `--trace-out`) keeps the level at Full.
        span::enable_latency();
        let listener =
            TcpListener::bind((config.host.as_str(), config.port)).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        let jobs = if config.jobs == 0 {
            default_jobs()
        } else {
            config.jobs
        };

        let mut cache = LruCache::new(config.cache_capacity);
        let mut metrics = MetricsRegistry::new();
        for name in [
            "requests-total",
            "sims-started",
            "sims-executed",
            "cache-hits",
            "key-memo-hits",
            "coalesced-hits",
            "fused-jobs",
            "queued",
            "rejected-429",
            "sim-failures",
            "sim-timeouts",
            "warm-start-entries",
            "rejected-connections",
            "handler-threads",
        ] {
            metrics.add(name, 0);
        }
        // The pool's size, for a router fronting this server to size its own.
        let handlers = handler_cap(config.queue_capacity.max(1), jobs);
        metrics.set("handler-cap", handlers as u64);
        let journal = match &config.warm_journal {
            Some(path) => {
                let journal = Journal::open_with(path, config.journal_sync)
                    .map_err(|e| ServeError::Journal(e.to_string()))?;
                // Deterministic warm-start order: journal iteration order is
                // unspecified, and with more entries than cache capacity the
                // insertion order decides who survives.
                let mut warm: Vec<(String, SimulationResponse)> = journal
                    .entries()
                    .filter_map(|(key, value)| {
                        let (label, stats, de) = api::result_from_journal(value)?;
                        let response = SimulationResponse {
                            label,
                            stats,
                            de,
                            key: key.to_owned(),
                            cached: true,
                        };
                        Some((key.to_owned(), response))
                    })
                    .collect();
                warm.sort_by(|a, b| a.0.cmp(&b.0));
                for (key, response) in &warm {
                    cache.insert(key, response.clone());
                }
                metrics.add("warm-start-entries", warm.len() as u64);
                Some(journal)
            }
            None => None,
        };

        let (sender, receiver) = std::sync::mpsc::sync_channel(config.queue_capacity.max(1));
        let state = Arc::new(State {
            cache: Mutex::new(cache),
            key_memo: Mutex::new(LruCache::new(config.cache_capacity)),
            flights: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(sender)),
            metrics: Mutex::new(metrics),
            journal: Mutex::new(journal),
            draining: AtomicBool::new(false),
            default_deadline: config.default_deadline,
            listen_addr: addr,
        });

        let dispatcher = {
            let state = Arc::clone(&state);
            let sim_delay = config.inject_sim_delay;
            std::thread::spawn(move || dispatcher(state, receiver, jobs, sim_delay))
        };
        let acceptor = acceptor::start(Arc::clone(&state), listener, handlers);

        Ok(Server {
            state,
            addr,
            acceptor,
            dispatcher,
        })
    }

    /// The bound address (the real port when `port: 0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reads one metrics counter (e.g. `"sims-executed"`) or gauge (e.g.
    /// `"handler-threads"`).
    pub fn counter(&self, name: &str) -> u64 {
        lock_or_recover(&self.state.metrics).counter(name)
    }

    /// Starts a graceful drain: stop accepting, finish queued and in-flight
    /// work. Equivalent to `POST /shutdown`. Idempotent.
    pub fn shutdown(&self) {
        initiate_drain(&self.state, self.addr);
    }

    /// Blocks until the service has drained (a shutdown must have been
    /// requested via [`Server::shutdown`] or `POST /shutdown`), then joins
    /// every service thread and closes the journal.
    pub fn join(self) {
        // The acceptor exits once draining is set and its blocking accept
        // is poked; until then this parks exactly like a foreground server
        // process should. Its handlers are joined after they have served
        // every accepted connection (they may still be enqueueing or
        // awaiting flights).
        self.acceptor.join();
        // Hang up the queue: the dispatcher drains what is left and exits.
        lock_or_recover(&self.state.queue).take();
        self.dispatcher.join().expect("dispatcher thread");
        // Close (flush) the journal.
        lock_or_recover(&self.state.journal).take();
    }
}

/// Flips the draining flag and unblocks the acceptor's blocking `accept`
/// with a throwaway self-connection.
fn initiate_drain(state: &State, addr: SocketAddr) {
    state.draining.store(true, Ordering::SeqCst);
    // Poke: the connect either reaches the acceptor (which sees the flag
    // and exits) or fails because the listener is already gone. Both fine.
    let _ = TcpStream::connect(addr);
}

/// Serves one connection: parse, route, respond, close.
///
/// `accepted` is when the acceptor pulled the connection off the listen
/// socket; the gap to here (the hand-off to a pool handler, and any wait
/// in the accept queue) is the `accept` stage. Every routed response carries the request's trace id in an
/// `X-Dynex-Trace` header; error bodies repeat it as a `"trace_id"` field.
/// Success bodies do *not* — they stay byte-identical to the engine's
/// deterministic output regardless of tracing.
fn handle_connection(state: &Arc<State>, mut stream: TcpStream, accepted: Instant) {
    let trace_id = span::fresh_trace_id();
    let _request = span::root_span("request", trace_id);
    span::record_stage("accept", accepted.elapsed());
    // A stalled client must not wedge graceful drain forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(message) => {
            let _ =
                write_response_traced(&mut stream, 400, &error_body(&message, trace_id), trace_id);
            return;
        }
    };
    state.count("requests-total");
    let (status, body) = route(state, &request, trace_id);
    let _respond = span::span("respond");
    let _ = write_response_traced(&mut stream, status, &body, trace_id);
}

/// Maps a parsed request to `(status, JSON body)`.
fn route(state: &Arc<State>, request: &HttpRequest, trace_id: u64) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let status = if state.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            (200, format!(r#"{{"status":"{status}"}}"#))
        }
        ("GET", "/metrics") => (200, metrics_body(state)),
        ("POST", "/shutdown") => {
            initiate_drain(state, state.listen_addr);
            (200, r#"{"status":"draining"}"#.to_owned())
        }
        ("POST", "/simulate") => handle_simulate(state, &request.body, trace_id),
        (_, "/healthz" | "/metrics" | "/shutdown" | "/simulate") => (
            405,
            error_body(
                &format!("method {} not allowed on {}", request.method, request.path),
                trace_id,
            ),
        ),
        (_, path) => (404, error_body(&format!("no route for {path}"), trace_id)),
    }
}

/// Builds the `/metrics` body: service counters, plus the tracing layer's
/// per-stage latency histograms (as `latency-us/<stage>`) and a
/// `latency_summary` block with p50/p90/p99/p999 per stage.
fn metrics_body(state: &Arc<State>) -> String {
    let mut snapshot = MetricsRegistry::new();
    snapshot.merge(&lock_or_recover(&state.metrics));
    let latency = span::latency_snapshot();
    for (stage, stats) in &latency {
        snapshot.put_histogram(&format!("latency-us/{stage}"), stats.histogram.clone());
    }
    let mut body = dynex_obs::export::metrics_json(&snapshot, None);
    // Splice the summary block in before the closing brace, the same way
    // `metrics_json` itself splices the interval series.
    body.pop();
    body.push_str(",\"latency_summary\":");
    body.push_str(&span::summary_json(&latency));
    body.push('}');
    body
}

/// What a simulate handler decided to do under the single-flight lock.
enum Claim {
    /// Result cache hit — answer immediately.
    Hit(SimulationResponse),
    /// An identical request is already in flight — await it.
    Join(Arc<Flight>),
    /// First requester for this key — enqueue and await.
    Lead(Arc<Flight>),
}

/// The `/simulate` endpoint.
///
/// A profile request whose routing key the key memo remembers, and whose
/// result the cache still holds, is answered from the cache without loading
/// its trace. Every other request is loaded and digested into its content
/// key, which the memo then remembers for profile sources.
fn handle_simulate(state: &Arc<State>, body: &str, trace_id: u64) -> (u16, String) {
    // Captured before any child span opens, so the dispatcher-side simulate
    // span parents directly into this request's root span.
    let root_ctx = span::current();
    let mut parse = span::span("parse");
    let request = match SimulationRequest::from_json(body) {
        Ok(request) => request,
        Err(e) => return (400, error_body(&e.to_string(), trace_id)),
    };
    // A profile trace is a pure function of the request, and the routing key
    // hashes every input of its content key (policy, kinds, geometry,
    // profile and refs), so a remembered content key is exact.
    let routing = match &request.trace {
        TraceSource::Profile(_) => match request.routing_key() {
            Ok(routing) => Some(routing),
            Err(e) => return (500, error_body(&e.to_string(), trace_id)),
        },
        TraceSource::Path(_) | TraceSource::Workloads => None,
    };
    if let Some(routing) = &routing {
        let remembered = lock_or_recover(&state.key_memo).get(routing).cloned();
        if let Some(key) = remembered {
            drop(parse);
            let found = {
                let _lookup = span::span("cache-lookup");
                lock_or_recover(&state.cache).get(&key).cloned()
            };
            if let Some(mut response) = found {
                response.cached = true;
                state.count("cache-hits");
                state.count("key-memo-hits");
                return (200, response.to_json());
            }
            // The result has been evicted since: resolve the request in full.
            parse = span::span("parse");
        }
    }
    let loaded = {
        let _load = span::span("load");
        api::load(&request)
    };
    let trace = match loaded {
        Ok(trace) => trace,
        Err(e) => return (400, error_body(&e.to_string(), trace_id)),
    };
    let digest = {
        let _digest = span::span("digest");
        trace.digest()
    };
    let key = match request.content_key_from_digest(digest) {
        Ok(key) => key,
        Err(e) => return (500, error_body(&e.to_string(), trace_id)),
    };
    if let Some(routing) = &routing {
        lock_or_recover(&state.key_memo).insert(routing, key.clone());
    }
    drop(parse);
    let deadline = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(state.default_deadline);

    // Single-flight claim. The flights lock is held across the cache probe
    // so the dispatcher's completion order (cache insert, then flight
    // removal) leaves no window where a finished key is in neither place.
    let claim = {
        let _lookup = span::span("cache-lookup");
        let mut flights = lock_or_recover(&state.flights);
        let mut cache = lock_or_recover(&state.cache);
        if let Some(found) = cache.get(&key) {
            let mut response = found.clone();
            response.cached = true;
            Claim::Hit(response)
        } else if let Some(flight) = flights.get(&key) {
            Claim::Join(Arc::clone(flight))
        } else {
            let flight = Arc::new(Flight::new());
            flights.insert(key.clone(), Arc::clone(&flight));
            Claim::Lead(flight)
        }
    };

    let flight = match claim {
        Claim::Hit(response) => {
            state.count("cache-hits");
            return (200, response.to_json());
        }
        Claim::Join(flight) => {
            state.count("coalesced-hits");
            flight
        }
        Claim::Lead(flight) => {
            let sender = lock_or_recover(&state.queue).clone();
            let job = SimJob {
                key: key.clone(),
                request,
                trace,
                flight: Arc::clone(&flight),
                deadline,
                ctx: root_ctx,
            };
            let enqueue = match sender {
                Some(sender) => sender.try_send(job).map_err(|e| match e {
                    TrySendError::Full(_) => (429, "simulation queue is full, retry later"),
                    TrySendError::Disconnected(_) => (503, "service is draining"),
                }),
                None => Err((503, "service is draining")),
            };
            if let Err((status, message)) = enqueue {
                // Wake any joiners that raced onto this flight before
                // withdrawing it — an unfilled flight with no deadline
                // would park them forever.
                flight.fill(Err(FlightError::Rejected(status, message.to_owned())));
                lock_or_recover(&state.flights).remove(&key);
                if status == 429 {
                    state.count("rejected-429");
                }
                return (status, error_body(message, trace_id));
            }
            // Post-enqueue marker: tests poll this to know a job is
            // *waiting* in the queue (vs started, vs merely requested).
            state.count("queued");
            flight
        }
    };

    let waited = {
        let _wait = span::span("queue-wait");
        flight.wait(deadline)
    };
    match waited {
        Ok(Ok(response)) => (200, response.to_json()),
        Ok(Err(FlightError::TimedOut(message))) => (504, error_body(&message, trace_id)),
        Ok(Err(FlightError::Failed(message))) => (500, error_body(&message, trace_id)),
        Ok(Err(FlightError::Rejected(status, message))) => (status, error_body(&message, trace_id)),
        Err(limit) => (
            504,
            error_body(
                &format!(
                    "deadline of {}ms exceeded awaiting the result",
                    limit.as_millis()
                ),
                trace_id,
            ),
        ),
    }
}

/// The dispatcher: take the first queued job, fold in what is already
/// queued behind it, execute the batch on the engine, publish. Its `jobs`
/// simulation workers live as long as it does.
fn dispatcher(state: Arc<State>, receiver: Receiver<SimJob>, jobs: usize, sim_delay: Duration) {
    let pool = ResilientPool::new(jobs);
    loop {
        let first = match receiver.recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed and empty: drained
        };
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match receiver.try_recv() {
                Ok(job) => batch.push(job),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        // The dispatch span is its own root: one batch can carry jobs from
        // several request traces, so it cannot parent into any one of them.
        let _dispatch = span::span("dispatch");
        execute_batch(&state, &pool, batch, sim_delay);
    }
}

/// One schedulable unit of a dispatcher batch: either a single job, or a
/// group of same-trace jobs fused into one sweep-kernel traversal.
enum Unit {
    /// A lone job (batch index), executed exactly as before.
    Single(usize),
    /// Batch indices of two or more jobs over the *same* decoded trace,
    /// answered from one [`api::execute_many`] pass.
    Fused(Vec<usize>),
}

impl Unit {
    fn indices(&self) -> &[usize] {
        match self {
            Unit::Single(index) => std::slice::from_ref(index),
            Unit::Fused(members) => members,
        }
    }
}

/// Plans a dispatcher batch into units: jobs whose policy has a sweep
/// specialization (every direct-mapped policy, ehc and bwcost included)
/// and whose kernel is not `reference` are grouped by decoded trace
/// content; a group of two or more becomes one fused unit so the whole
/// group rides a single sweep-kernel traversal. Everything else (reference
/// runs, policies without a sweep specialization, singleton groups) stays
/// a per-job unit.
/// Grouping is by digest *and* a content check, so a digest collision can
/// never fuse jobs over different traces.
fn plan_units(batch: &[SimJob]) -> Vec<Unit> {
    let mut units = Vec::new();
    // (digest, representative index, members) in first-appearance order.
    let mut groups: Vec<(u64, usize, Vec<usize>)> = Vec::new();
    for (index, job) in batch.iter().enumerate() {
        let sweepable =
            job.request.policy.sweep_policy().is_some() && job.request.kernel != Kernel::Reference;
        if !sweepable {
            units.push(Unit::Single(index));
            continue;
        }
        let digest = job.trace.digest();
        match groups
            .iter_mut()
            .find(|(d, rep, _)| *d == digest && batch[*rep].trace.addrs == job.trace.addrs)
        {
            Some((_, _, members)) => members.push(index),
            None => groups.push((digest, index, vec![index])),
        }
    }
    for (_, _, members) in groups {
        if members.len() == 1 {
            units.push(Unit::Single(members[0]));
        } else {
            units.push(Unit::Fused(members));
        }
    }
    units
}

/// Runs one batch on the dispatcher's resilient pool and publishes every
/// slot.
///
/// Same-trace sweepable jobs are coalesced (see [`plan_units`]): the fused
/// unit answers every member from one trace traversal, byte-identical to the
/// per-job path because [`api::execute_many`] builds its responses from the
/// same label constructors and content keys as [`api::execute`]. Fault
/// isolation becomes per-unit — a panic or watchdog timeout inside a fused
/// unit fails all of its members together, never the rest of the batch.
fn execute_batch(
    state: &Arc<State>,
    pool: &ResilientPool,
    batch: Vec<SimJob>,
    sim_delay: Duration,
) {
    lock_or_recover(&state.metrics).add("sims-executed", batch.len() as u64);

    // The engine watchdog is per-job but configured per-plan: use the
    // longest deadline in the batch so no job is reaped earlier than its
    // own budget allows. (Each waiter additionally enforces its own,
    // possibly shorter, deadline on the response path.) A single job
    // without a deadline disables the watchdog for the plan.
    let watchdog = batch
        .iter()
        .map(|job| job.deadline)
        .try_fold(Duration::ZERO, |acc, d| d.map(|d| acc.max(d)));
    let resilience = Resilience {
        max_retries: 0,
        deadline: watchdog,
        ..Resilience::default()
    };

    let units = plan_units(&batch);
    let fused_jobs: usize = units
        .iter()
        .filter(|unit| matches!(unit, Unit::Fused(_)))
        .map(|unit| unit.indices().len())
        .sum();
    if fused_jobs > 0 {
        lock_or_recover(&state.metrics).add("fused-jobs", fused_jobs as u64);
    }

    let items = Arc::new(batch);
    let units = Arc::new(units);
    let sim_state = Arc::clone(state);
    let sim_items = Arc::clone(&items);
    type UnitResults = Vec<(usize, Result<SimulationResponse, String>)>;
    let outcome = pool.execute(Arc::clone(&units), resilience, move |unit: &Unit| {
        match unit {
            Unit::Single(index) => {
                let job = &sim_items[*index];
                // Re-enter the leader's request trace on this pool thread so
                // the simulate span (and the kernel chunk spans beneath it)
                // parent into the originating request, not into the dispatch
                // root.
                let _ctx = job.ctx.map(span::enter);
                let _simulate = span::span("simulate");
                sim_state.count("sims-started");
                if !sim_delay.is_zero() {
                    std::thread::sleep(sim_delay);
                }
                let result: UnitResults = vec![(
                    *index,
                    api::execute(&job.request, &job.trace).map_err(|e| e.to_string()),
                )];
                result
            }
            Unit::Fused(members) => {
                // The fused traversal parents into the first member's trace;
                // the other members see it only through their flight result.
                let lead = &sim_items[members[0]];
                let _ctx = lead.ctx.map(span::enter);
                let _simulate = span::span("simulate");
                lock_or_recover(&sim_state.metrics).add("sims-started", members.len() as u64);
                if !sim_delay.is_zero() {
                    std::thread::sleep(sim_delay);
                }
                let requests: Vec<&SimulationRequest> =
                    members.iter().map(|&i| &sim_items[i].request).collect();
                match api::execute_many(&requests, &lead.trace) {
                    Ok(responses) => members
                        .iter()
                        .copied()
                        .zip(responses.into_iter().map(Ok))
                        .collect(),
                    Err(e) => {
                        let message = e.to_string();
                        members.iter().map(|&i| (i, Err(message.clone()))).collect()
                    }
                }
            }
        }
    });

    // Scatter unit outcomes back to per-job slots (plan order is
    // deterministic, and every batch index appears in exactly one unit).
    let mut slots: Vec<Option<FlightResult>> = items.iter().map(|_| None).collect();
    for (unit, slot) in units.iter().zip(outcome.results()) {
        match slot {
            Ok(pairs) => {
                for (index, result) in pairs {
                    slots[*index] = Some(match result {
                        Ok(response) => Ok(response.clone()),
                        Err(message) => Err(FlightError::Failed(message.clone())),
                    });
                }
            }
            Err(unit_error) => {
                let failure = match &unit_error.failure {
                    JobFailure::TimedOut { .. } => FlightError::TimedOut(unit_error.to_string()),
                    JobFailure::Panicked { .. } => FlightError::Failed(unit_error.to_string()),
                };
                for &index in unit.indices() {
                    slots[index] = Some(Err(failure.clone()));
                }
            }
        }
    }

    for (job, slot) in items.iter().zip(slots) {
        let result: FlightResult = slot.unwrap_or_else(|| {
            // Every index is planned into a unit; an empty slot would mean
            // the planner broke its contract. Fail the flight rather than
            // parking its waiters.
            Err(FlightError::Failed(
                "internal error: job missing from batch plan".to_owned(),
            ))
        });
        match &result {
            Ok(response) => {
                // Publish order matters: cache first, then drop the flight
                // (see the claim logic in `handle_simulate`).
                lock_or_recover(&state.cache).insert(&job.key, response.clone());
                if let Some(journal) = lock_or_recover(&state.journal).as_mut() {
                    let value =
                        api::result_to_journal(&response.label, response.stats, response.de);
                    if let Err(e) = journal.record(&job.key, &value) {
                        eprintln!("warning: journal: {e}");
                    }
                }
            }
            Err(FlightError::TimedOut(_)) => state.count("sim-timeouts"),
            Err(FlightError::Failed(_)) => state.count("sim-failures"),
            // Rejections are filled by handlers before enqueueing; a job
            // that reached the dispatcher was never rejected.
            Err(FlightError::Rejected(..)) => unreachable!("rejected jobs are never dispatched"),
        }
        lock_or_recover(&state.flights).remove(&job.key);
        job.flight.fill(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_experiments::api::SimulationRequest;

    /// A minimal queued job over the given decoded addresses.
    fn job(policy: &str, kernel: &str, addrs: Vec<u32>) -> SimJob {
        let mut builder = SimulationRequest::builder();
        builder.policy(policy).kernel(kernel);
        SimJob {
            key: format!("{policy}/{kernel}/{}", addrs.len()),
            request: builder.build().expect("valid request"),
            trace: LoadedTrace::new(addrs, 0),
            flight: Arc::new(Flight::new()),
            deadline: None,
            ctx: None,
        }
    }

    #[test]
    fn a_poisoned_flight_still_delivers_its_result() {
        let flight = Arc::new(Flight::new());
        let poisoner = Arc::clone(&flight);
        let _ = std::thread::spawn(move || {
            let _slot = poisoner.slot.lock();
            panic!("deliberate panic under the flight lock");
        })
        .join();
        assert!(flight.slot.is_poisoned());
        flight.fill(Err(FlightError::Failed("kaput".to_owned())));
        assert!(matches!(
            flight.wait(Some(Duration::from_secs(1))),
            Ok(Err(FlightError::Failed(message))) if message == "kaput"
        ));
    }

    fn shape(units: &[Unit]) -> Vec<Vec<usize>> {
        units.iter().map(|u| u.indices().to_vec()).collect()
    }

    #[test]
    fn plan_fuses_same_trace_sweepable_jobs() {
        let shared: Vec<u32> = (0..64).map(|i| i * 4).collect();
        let other: Vec<u32> = (0..64).map(|i| i * 8).collect();
        let batch = vec![
            job("dm", "batch", shared.clone()),
            job("de", "sweep", shared.clone()),
            job("de", "batch", other.clone()),
            job("opt", "batch", shared.clone()),
            job("de", "batch", other),
        ];
        // Indices 0/1/3 share a trace; 2/4 share the other one.
        assert_eq!(shape(&plan_units(&batch)), vec![vec![0, 1, 3], vec![2, 4]]);
    }

    #[test]
    fn plan_keeps_reference_and_unsweepable_jobs_single() {
        let shared: Vec<u32> = (0..64).map(|i| i * 4).collect();
        let batch = vec![
            job("de", "reference", shared.clone()),
            job("2way", "batch", shared.clone()),
            job("dm", "batch", shared.clone()),
            job("de-lastline", "batch", shared.clone()),
            job("ehc", "batch", shared.clone()),
            job("bwcost", "sweep", shared),
        ];
        // The reference run and the unsweepable policy stay per-job
        // units (in batch order, ahead of the groups); the direct-mapped
        // 2..=5 fuse.
        assert_eq!(
            shape(&plan_units(&batch)),
            vec![vec![0], vec![1], vec![2, 3, 4, 5]]
        );
    }

    #[test]
    fn plan_leaves_singleton_groups_unfused() {
        let a: Vec<u32> = vec![0, 4, 8];
        let b: Vec<u32> = vec![0, 4, 12];
        let batch = vec![job("de", "batch", a), job("de", "batch", b)];
        assert_eq!(shape(&plan_units(&batch)), vec![vec![0], vec![1]]);
    }

    #[test]
    fn plan_never_fuses_across_different_traces() {
        // Same length, different content: must not fuse even though both
        // are sweepable (content equality guards the digest grouping).
        let a: Vec<u32> = (0..1000).map(|i| i * 4).collect();
        let mut b = a.clone();
        b[999] = 0;
        let batch = vec![
            job("dm", "batch", a.clone()),
            job("de", "batch", b),
            job("opt", "batch", a),
        ];
        assert_eq!(shape(&plan_units(&batch)), vec![vec![0, 2], vec![1]]);
    }
}
