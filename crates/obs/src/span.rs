//! Structured tracing: nested spans, per-stage latency histograms, and a
//! JSONL span stream.
//!
//! The probe layer answers *what happened* (hits, misses, evictions); this
//! module answers *where the time went*. A [`SpanGuard`] measures one stage
//! of work on the monotonic clock and, on drop, feeds a process-wide
//! lock-sharded [`LatencyRecorder`] (log2-bucketed [`Histogram`]s with
//! p50/p90/p99/p999 summaries) and — when a JSONL sink is installed — emits
//! one line per closed span, reconstructable into a per-request timeline.
//!
//! # Cost model (the NoopProbe guarantee, extended)
//!
//! Tracing is **off by default**. The global [`TraceLevel`] is a single
//! atomic; at [`TraceLevel::Off`] a [`span`] call is one relaxed load and an
//! inert guard — no clock read, no allocation, no lock. Call sites sit at
//! batch-chunk boundaries (thousands of references apart), never inside the
//! branchless per-reference loops, so an untraced run keeps the fused-kernel
//! throughput. At [`TraceLevel::Latency`] each span costs two clock reads
//! plus one sharded-mutex histogram update; [`TraceLevel::Full`] adds id
//! allocation and one JSONL line per span.
//!
//! # Trace trees
//!
//! Spans nest through a thread-local context stack: a span opened while
//! another is open becomes its child. Work that hops threads (a service
//! handler enqueueing onto a dispatcher pool) carries a [`SpanCtx`] across
//! and re-enters it with [`enter`], so the simulate span on a worker thread
//! still parents back to the originating request. Guards close in LIFO
//! order, which means a parent's JSONL line is always written *after* every
//! child's — consumers can rebuild the tree in one forward pass.
//!
//! ```
//! use dynex_obs::span;
//!
//! // Off by default: this is an inert guard, not a measurement.
//! let guard = span::span("example");
//! drop(guard);
//!
//! // A standalone recorder (the global one works the same way).
//! let recorder = span::LatencyRecorder::new();
//! recorder.record("simulate", std::time::Duration::from_micros(250));
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot["simulate"].histogram.total(), 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::registry::Histogram;

/// How much the tracing layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing: spans are inert guards (the zero-cost default).
    Off,
    /// Span durations feed the global [`LatencyRecorder`]; no span stream.
    Latency,
    /// Latency recording plus one JSONL line per closed span.
    Full,
}

impl TraceLevel {
    fn from_u8(v: u8) -> TraceLevel {
        match v {
            2 => TraceLevel::Full,
            1 => TraceLevel::Latency,
            _ => TraceLevel::Off,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceLevel::Off => 0,
            TraceLevel::Latency => 1,
            TraceLevel::Full => 2,
        }
    }
}

/// The global level, separate from the lazy tracer state so the off path is
/// a single relaxed load with no `OnceLock` indirection.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Ids are process-unique and never zero (0 is "no parent" on the wire).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Lazily initialized global state: the clock epoch for `start_us`, the
/// latency recorder, and the optional JSONL sink.
struct GlobalTracer {
    epoch: Instant,
    latency: LatencyRecorder,
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

fn global() -> &'static GlobalTracer {
    static GLOBAL: OnceLock<GlobalTracer> = OnceLock::new();
    GLOBAL.get_or_init(|| GlobalTracer {
        epoch: Instant::now(),
        latency: LatencyRecorder::new(),
        sink: Mutex::new(None),
    })
}

/// A mutex whose protected state stays valid across a panicking holder:
/// histograms and the JSONL sink are append-only, so recovering the guard
/// beats poisoning the whole observability layer.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The ambient span stack; the top entry parents new spans.
    static CONTEXT: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
}

/// The current tracing level.
pub fn level() -> TraceLevel {
    TraceLevel::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Sets the tracing level process-wide.
pub fn set_level(level: TraceLevel) {
    LEVEL.store(level.as_u8(), Ordering::Relaxed);
}

/// Raises the level to at least [`TraceLevel::Latency`] (never lowers it) —
/// what a service does at boot so `/metrics` has per-stage histograms even
/// when no span stream was requested.
pub fn enable_latency() {
    let _ = LEVEL.compare_exchange(
        TraceLevel::Off.as_u8(),
        TraceLevel::Latency.as_u8(),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
}

/// Installs a JSONL sink for closed spans and raises the level to
/// [`TraceLevel::Full`]. Each span is written (and flushed) as one line:
///
/// ```json
/// {"trace":"000000000000002a","span":43,"parent":42,"stage":"parse","start_us":17,"dur_us":5}
/// ```
///
/// `parent` is 0 for a root span; `start_us` is monotonic, relative to the
/// first use of the tracing layer in this process.
pub fn install_jsonl_writer(writer: Box<dyn Write + Send>) {
    *lock_recover(&global().sink) = Some(writer);
    set_level(TraceLevel::Full);
}

/// Opens (truncates) `path` and installs it via [`install_jsonl_writer`].
pub fn install_jsonl_path(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    install_jsonl_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Removes the JSONL sink (flushing it) and drops the level back to
/// [`TraceLevel::Latency`] if it was [`TraceLevel::Full`]. Returns the
/// writer so tests can inspect what was written.
pub fn take_jsonl_writer() -> Option<Box<dyn Write + Send>> {
    let mut writer = lock_recover(&global().sink).take();
    if let Some(w) = writer.as_mut() {
        let _ = w.flush();
    }
    let _ = LEVEL.compare_exchange(
        TraceLevel::Full.as_u8(),
        TraceLevel::Latency.as_u8(),
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    writer
}

/// Allocates a fresh process-unique trace id (never zero). Always available
/// — services stamp every request with one for the wire contract even when
/// tracing is off.
pub fn fresh_trace_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Renders a trace id the way the wire contract does: 16 lowercase hex
/// digits (the `X-Dynex-Trace` header value and the JSONL `trace` field).
pub fn trace_hex(trace_id: u64) -> String {
    format!("{trace_id:016x}")
}

/// A position in a trace tree: which trace, and which span parents new work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// The trace (request) this work belongs to.
    pub trace_id: u64,
    /// The span that parents anything opened under this context.
    pub span_id: u64,
}

/// The innermost ambient span context on this thread, if any.
pub fn current() -> Option<SpanCtx> {
    CONTEXT.with(|stack| stack.borrow().last().copied())
}

/// Re-enters a context carried across threads: spans opened on this thread
/// while the guard lives become children of `ctx`. No-op below
/// [`TraceLevel::Full`] (there is no tree to attach to).
pub fn enter(ctx: SpanCtx) -> CtxGuard {
    if level() != TraceLevel::Full {
        return CtxGuard { entered: false };
    }
    CONTEXT.with(|stack| stack.borrow_mut().push(ctx));
    CtxGuard { entered: true }
}

/// Restores the ambient context stack on drop (see [`enter`]).
#[must_use = "dropping the guard immediately exits the context"]
pub struct CtxGuard {
    entered: bool,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.entered {
            CONTEXT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Opens a span for `stage`: a child of the current ambient span, or a new
/// root (fresh trace id) when none is open. Closes when the guard drops.
pub fn span(stage: &'static str) -> SpanGuard {
    open_span(stage, None)
}

/// Opens a **root** span bound to an explicit `trace_id` (allocated with
/// [`fresh_trace_id`]), ignoring any ambient context — the request entry
/// point uses this so the span tree carries the id echoed on the wire.
pub fn root_span(stage: &'static str, trace_id: u64) -> SpanGuard {
    open_span(stage, Some(trace_id))
}

fn open_span(stage: &'static str, root_trace: Option<u64>) -> SpanGuard {
    let level = level();
    if level == TraceLevel::Off {
        return SpanGuard { active: None };
    }
    let full = if level == TraceLevel::Full {
        let span_id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent) = match root_trace {
            Some(trace_id) => (trace_id, 0),
            None => match current() {
                Some(ctx) => (ctx.trace_id, ctx.span_id),
                None => (fresh_trace_id(), 0),
            },
        };
        let ctx = SpanCtx { trace_id, span_id };
        CONTEXT.with(|stack| stack.borrow_mut().push(ctx));
        Some(FullSpan { ctx, parent })
    } else {
        None
    };
    SpanGuard {
        active: Some(ActiveSpan {
            stage,
            start: Instant::now(),
            full,
        }),
    }
}

struct FullSpan {
    ctx: SpanCtx,
    parent: u64,
}

struct ActiveSpan {
    stage: &'static str,
    start: Instant,
    full: Option<FullSpan>,
}

/// A live span; dropping it closes the span (records the duration and, at
/// [`TraceLevel::Full`], writes the JSONL line).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// This span's context, for carrying across threads into [`enter`].
    /// `None` unless the level is [`TraceLevel::Full`].
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.active
            .as_ref()
            .and_then(|a| a.full.as_ref())
            .map(|f| f.ctx)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let duration = active.start.elapsed();
        let tracer = global();
        tracer.latency.record(active.stage, duration);
        if let Some(full) = active.full {
            // Pop this span from the ambient stack. Guards drop in LIFO
            // order under normal scoping; a search keeps a stray
            // out-of-order drop from corrupting unrelated entries.
            CONTEXT.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|c| c.span_id == full.ctx.span_id) {
                    stack.remove(pos);
                }
            });
            let start_us = active
                .start
                .saturating_duration_since(tracer.epoch)
                .as_micros() as u64;
            emit_line(
                tracer,
                full.ctx,
                full.parent,
                active.stage,
                start_us,
                duration,
            );
        }
    }
}

/// Records an externally measured duration for `stage`: the histogram entry
/// a [`span`] would have made, plus (at [`TraceLevel::Full`]) a span line
/// parented under the current ambient context. For call sites that already
/// hold an elapsed time (the engine's per-attempt accounting).
pub fn record_stage(stage: &'static str, duration: Duration) {
    let level = level();
    if level == TraceLevel::Off {
        return;
    }
    let tracer = global();
    tracer.latency.record(stage, duration);
    if level == TraceLevel::Full {
        let span_id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (trace_id, parent) = match current() {
            Some(ctx) => (ctx.trace_id, ctx.span_id),
            None => (fresh_trace_id(), 0),
        };
        let now_us = Instant::now()
            .saturating_duration_since(tracer.epoch)
            .as_micros() as u64;
        let start_us = now_us.saturating_sub(duration.as_micros() as u64);
        emit_line(
            tracer,
            SpanCtx { trace_id, span_id },
            parent,
            stage,
            start_us,
            duration,
        );
    }
}

fn emit_line(
    tracer: &GlobalTracer,
    ctx: SpanCtx,
    parent: u64,
    stage: &'static str,
    start_us: u64,
    duration: Duration,
) {
    let mut sink = lock_recover(&tracer.sink);
    if let Some(w) = sink.as_mut() {
        let line = format!(
            r#"{{"trace":"{}","span":{},"parent":{},"stage":"{}","start_us":{},"dur_us":{}}}"#,
            trace_hex(ctx.trace_id),
            ctx.span_id,
            parent,
            crate::json::escape(stage),
            start_us,
            duration.as_micros() as u64
        );
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// The global recorder's per-stage snapshot (see
/// [`LatencyRecorder::snapshot`]).
pub fn latency_snapshot() -> BTreeMap<String, StageStats> {
    global().latency.snapshot()
}

/// Log2 bucket preset: inclusive upper bounds `1, 2, 4, …, 2^30`
/// microseconds (~18 minutes), overflow above. One shape for every stage so
/// shard merging is always defined.
pub const LATENCY_BUCKETS_MAX_EXP: u32 = 30;

/// Shards in a [`LatencyRecorder`]: enough that per-connection handler
/// threads rarely contend, small enough that snapshots stay cheap.
const LATENCY_SHARDS: usize = 8;

/// Per-stage latency accounting: the log2 histogram plus an exact total
/// (bucket upper bounds alone cannot reconstruct a faithful sum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Microsecond durations in [`LATENCY_BUCKETS_MAX_EXP`] log2 buckets.
    pub histogram: Histogram,
    /// Exact sum of recorded durations, in microseconds.
    pub total_us: u64,
}

impl StageStats {
    fn new() -> StageStats {
        StageStats {
            histogram: Histogram::pow2(LATENCY_BUCKETS_MAX_EXP),
            total_us: 0,
        }
    }

    fn merge(&mut self, other: &StageStats) {
        self.histogram.merge(&other.histogram);
        self.total_us += other.total_us;
    }
}

/// A lock-sharded stage → latency-histogram map.
///
/// Writers hash their thread onto one of a fixed set of shards, so
/// concurrent handler threads recording the same stage rarely share a
/// mutex; readers merge every shard into one snapshot. Built on
/// [`Histogram`] with the [`LATENCY_BUCKETS_MAX_EXP`] log2 preset.
#[derive(Debug)]
pub struct LatencyRecorder {
    shards: Vec<Mutex<BTreeMap<String, StageStats>>>,
}

impl Default for LatencyRecorder {
    fn default() -> LatencyRecorder {
        LatencyRecorder::new()
    }
}

/// Round-robin shard assignment, one slot per thread on first use.
fn shard_index(n_shards: usize) -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: std::cell::Cell<usize> =
            const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v % n_shards
    })
}

impl LatencyRecorder {
    /// An empty recorder with the default shard count.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::with_shards(LATENCY_SHARDS)
    }

    /// An empty recorder with `n_shards` shards (clamped to at least 1).
    pub fn with_shards(n_shards: usize) -> LatencyRecorder {
        LatencyRecorder {
            shards: (0..n_shards.max(1))
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
        }
    }

    /// Records one duration for `stage` (bucketed in microseconds).
    pub fn record(&self, stage: &str, duration: Duration) {
        self.record_us(stage, duration.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one duration for `stage`, already in microseconds.
    pub fn record_us(&self, stage: &str, us: u64) {
        let shard = &self.shards[shard_index(self.shards.len())];
        let mut map = lock_recover(shard);
        match map.get_mut(stage) {
            Some(stats) => {
                stats.histogram.record(us);
                stats.total_us += us;
            }
            None => {
                let mut stats = StageStats::new();
                stats.histogram.record(us);
                stats.total_us = us;
                map.insert(stage.to_owned(), stats);
            }
        }
    }

    /// Merges every shard into one stage → stats map (deterministic order).
    pub fn snapshot(&self) -> BTreeMap<String, StageStats> {
        let mut merged: BTreeMap<String, StageStats> = BTreeMap::new();
        for shard in &self.shards {
            for (stage, stats) in lock_recover(shard).iter() {
                match merged.get_mut(stage) {
                    Some(acc) => acc.merge(stats),
                    None => {
                        merged.insert(stage.clone(), stats.clone());
                    }
                }
            }
        }
        merged
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| lock_recover(shard).is_empty())
    }

    /// Percentile summary JSON keyed by stage:
    ///
    /// ```json
    /// {"simulate":{"count":12,"total_us":3400,"p50_us":256,"p90_us":512,"p99_us":512,"p999_us":512}}
    /// ```
    ///
    /// Percentiles are bucket upper bounds (see [`Histogram::quantile`]).
    pub fn summary_json(&self) -> String {
        summary_json(&self.snapshot())
    }
}

/// Renders a [`LatencyRecorder::snapshot`] as the percentile summary JSON
/// document (also usable on a merged snapshot from several recorders).
pub fn summary_json(snapshot: &BTreeMap<String, StageStats>) -> String {
    let mut out = String::from("{");
    for (i, (stage, stats)) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let q = |p: f64| {
            stats
                .histogram
                .quantile(p)
                .map_or_else(|| "null".to_owned(), |v| v.to_string())
        };
        out.push_str(&format!(
            r#""{}":{{"count":{},"total_us":{},"p50_us":{},"p90_us":{},"p99_us":{},"p999_us":{}}}"#,
            crate::json::escape(stage),
            stats.histogram.total(),
            stats.total_us,
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
        ));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::sync::Arc;

    /// Tests here mutate process-global tracer state; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// A `Write` handle tests can read back after handing it to the sink.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn captured_lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Json> {
        let raw = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        raw.lines().map(|l| json::parse(l).unwrap()).collect()
    }

    fn field(span: &Json, key: &str) -> u64 {
        span.get(key).and_then(Json::as_u64).unwrap()
    }

    #[test]
    fn off_level_spans_are_inert() {
        let _lock = lock_recover(&TEST_LOCK);
        set_level(TraceLevel::Off);
        let guard = span("inert");
        assert!(guard.ctx().is_none());
        assert!(current().is_none());
        drop(guard);
    }

    #[test]
    fn nested_spans_parent_correctly_and_parents_close_last() {
        let _lock = lock_recover(&TEST_LOCK);
        let buf = Arc::new(Mutex::new(Vec::new()));
        install_jsonl_writer(Box::new(SharedBuf(Arc::clone(&buf))));

        let trace_id = fresh_trace_id();
        {
            let root = root_span("request", trace_id);
            let root_ctx = root.ctx().unwrap();
            assert_eq!(root_ctx.trace_id, trace_id);
            {
                let child = span("parse");
                let child_ctx = child.ctx().unwrap();
                assert_eq!(child_ctx.trace_id, trace_id);
                let grand = span("decode");
                assert_eq!(grand.ctx().unwrap().trace_id, trace_id);
            }
            record_stage("attempt", Duration::from_micros(5));
        }
        drop(take_jsonl_writer());
        set_level(TraceLevel::Off);

        let spans = captured_lines(&buf);
        let ours: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("trace").and_then(Json::as_str) == Some(&trace_hex(trace_id)))
            .collect();
        assert_eq!(ours.len(), 4, "request, parse, decode, attempt");

        // Closing order: children before parents, the root last.
        let stages: Vec<&str> = ours
            .iter()
            .map(|s| s.get("stage").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(stages, ["decode", "parse", "attempt", "request"]);

        // Ids are unique; parent links form the expected tree.
        let mut ids: Vec<u64> = ours.iter().map(|s| field(s, "span")).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids must be unique");
        let by_stage = |stage: &str| {
            *ours
                .iter()
                .find(|s| s.get("stage").and_then(Json::as_str) == Some(stage))
                .unwrap()
        };
        let root = by_stage("request");
        assert_eq!(field(root, "parent"), 0);
        assert_eq!(field(by_stage("parse"), "parent"), field(root, "span"));
        assert_eq!(
            field(by_stage("decode"), "parent"),
            field(by_stage("parse"), "span")
        );
        // record_stage ran while only the root was open.
        assert_eq!(field(by_stage("attempt"), "parent"), field(root, "span"));
        assert_eq!(field(by_stage("attempt"), "dur_us"), 5);
    }

    #[test]
    fn enter_carries_context_across_threads() {
        let _lock = lock_recover(&TEST_LOCK);
        let buf = Arc::new(Mutex::new(Vec::new()));
        install_jsonl_writer(Box::new(SharedBuf(Arc::clone(&buf))));

        let trace_id = fresh_trace_id();
        let root = root_span("request", trace_id);
        let ctx = root.ctx().unwrap();
        std::thread::spawn(move || {
            let _entered = enter(ctx);
            let _child = span("worker");
        })
        .join()
        .unwrap();
        drop(root);
        drop(take_jsonl_writer());
        set_level(TraceLevel::Off);

        let spans = captured_lines(&buf);
        let worker = spans
            .iter()
            .find(|s| s.get("stage").and_then(Json::as_str) == Some("worker"))
            .unwrap();
        assert_eq!(
            worker.get("trace").and_then(Json::as_str),
            Some(trace_hex(trace_id).as_str())
        );
        assert_eq!(field(worker, "parent"), ctx.span_id);
    }

    #[test]
    fn latency_recorder_snapshot_merges_shards_and_summarizes() {
        let recorder = Arc::new(LatencyRecorder::with_shards(4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let recorder = Arc::clone(&recorder);
                std::thread::spawn(move || {
                    for us in [100u64, 200, 400] {
                        recorder.record_us("simulate", us);
                    }
                    recorder.record_us("parse", 3);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot["simulate"].histogram.total(), 24);
        assert_eq!(snapshot["simulate"].total_us, 8 * 700);
        assert_eq!(snapshot["parse"].histogram.total(), 8);

        let summary = json::parse(&recorder.summary_json()).unwrap();
        let simulate = summary.get("simulate").unwrap();
        assert_eq!(simulate.get("count").and_then(Json::as_u64), Some(24));
        assert_eq!(simulate.get("total_us").and_then(Json::as_u64), Some(5600));
        // 100 → bucket bound 128; 400 → bound 512.
        assert_eq!(simulate.get("p50_us").and_then(Json::as_u64), Some(256));
        assert_eq!(simulate.get("p999_us").and_then(Json::as_u64), Some(512));
    }

    #[test]
    fn empty_recorder_is_empty_and_summarizes_to_empty_object() {
        let recorder = LatencyRecorder::new();
        assert!(recorder.is_empty());
        assert_eq!(recorder.summary_json(), "{}");
    }

    #[test]
    fn trace_hex_is_sixteen_lowercase_digits() {
        assert_eq!(trace_hex(0x2a), "000000000000002a");
        assert_eq!(trace_hex(u64::MAX), "ffffffffffffffff");
    }
}
