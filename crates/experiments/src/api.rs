//! The unified request API: one typed [`SimulationRequest`] /
//! [`SimulationResponse`] pair that every entry point — the `experiments`
//! driver, `simcache`, the examples, and the `dynex-serve` service —
//! constructs instead of threading a dozen loose flags through separate
//! code paths.
//!
//! The module owns four concerns that used to be duplicated per binary:
//!
//! * **Construction + validation** — [`RequestBuilder`] accepts the raw CLI
//!   strings (`"32K"`, `"de-lastline"`, `"batch"`) and validates everything
//!   in one place, including the cache geometry itself. Environment
//!   overrides (`DYNEX_JOBS`, `DYNEX_REFS`) are resolved here — once,
//!   loudly: a malformed variable fails the build even when a flag
//!   overrides it.
//! * **Wire format** — [`SimulationRequest::to_json`] /
//!   [`SimulationRequest::from_json`] round-trip the request through the
//!   workspace's hand-rolled JSON layer (hermetic builds cannot reach
//!   serde). Unknown fields are rejected, so a typo'd request fails loudly
//!   instead of silently simulating the defaults.
//! * **Content keys** — [`SimulationRequest::content_key`] derives the
//!   journal/cache key for a request, byte-compatible with the PR 3
//!   `simcache --resume` keys. A versioned key-schema guard
//!   ([`verify_key_schema`]) classifies *every* request field as
//!   key-covered, covered-via-trace-digest, or intentionally excluded, and
//!   fails loudly when a field is not classified — so a field added later
//!   can never silently collide two distinct configurations under one key.
//! * **Execution** — [`load`] / [`execute`] / [`run`] turn a request into a
//!   [`SimulationResponse`] (journal-aware through the engine's global
//!   journal), and [`install_session`] applies the session-wide knobs
//!   (worker count, kernel, resume journal) exactly once.
//!
//! The policy vocabulary is the engine's [`PolicyKind`]; every simulated
//! point goes through the engine's one dispatch, [`run_jobs`]:
//! [`execute`] as its one-job case ([`PolicyKind::run`]), [`execute_many`]
//! and the triples as N-job calls. The sweep
//! entry points [`sweep_triples`] / [`run_triples`] run the paper's
//! DM/DE/OPT comparison over many points.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use dynex::DeStats;
use dynex_cache::{decode_addrs, CacheConfig, CacheStats, Kernel, KindFilter};
use dynex_engine::{
    default_jobs, default_kernel, execute as pool_execute, job_key, run_jobs, trace_digest,
    with_global_journal, Job, Journal, PolicyError, PolicyKind, PolicyRun,
};
use dynex_obs::json::{self, Json};
use dynex_obs::NoopProbe;
use dynex_trace::{io as trace_io, ReadPolicy, Trace};

use crate::runner::Triple;

pub mod mix;

/// Version of the content-key schema. Bump this (and re-classify the
/// fields) whenever a field moves between the covered and excluded sets —
/// the old journal records then simply miss instead of colliding.
///
/// v2 (PR 10): the wire field `org` became `policy` when the closed
/// organization enum grew into the policy zoo. The *hash inputs* are
/// unchanged — the policy name occupies the same key slot the organization
/// name did — so every v1 journal record still replays under its original
/// key; only the schema's field classification was renamed.
pub const KEY_SCHEMA_VERSION: u32 = 2;

/// Fields hashed directly into the content key.
const KEY_COVERED: &[&str] = &["policy", "kinds", "size_bytes", "line_bytes"];

/// Fields covered *indirectly*: they determine which references are
/// simulated, so they are captured by the trace digest inside the key.
const KEY_VIA_DIGEST: &[&str] = &["trace", "refs", "max_skipped"];

/// Fields intentionally excluded from the key because they cannot change
/// the result: every kernel is bit-identical, the engine is deterministic
/// for every worker count, and deadlines/resume only decide whether a
/// result is produced, never its value.
const KEY_EXCLUDED: &[&str] = &["kernel", "jobs", "deadline_ms", "resume"];

/// A request-API failure: invalid field, bad environment, trace I/O, or a
/// key-schema violation.
#[derive(Debug)]
pub enum ApiError {
    /// A request field failed validation.
    Invalid {
        /// The offending field (CLI flag or JSON key).
        field: &'static str,
        /// Why it was rejected.
        message: String,
    },
    /// A `DYNEX_*` environment override is malformed.
    Env(String),
    /// The trace could not be loaded.
    Trace(String),
    /// The resume journal could not be opened.
    Journal(String),
    /// A request field is not covered by the key-derivation schema (see
    /// [`verify_key_schema`]).
    KeySchema(String),
    /// A policy-surface failure from the engine: an unknown policy name.
    Policy(PolicyError),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Invalid { field, message } => write!(f, "bad {field} value: {message}"),
            ApiError::Env(message) => write!(f, "{message}"),
            ApiError::Trace(message) => write!(f, "{message}"),
            ApiError::Journal(message) => write!(f, "{message}"),
            ApiError::KeySchema(message) => write!(f, "key schema violation: {message}"),
            ApiError::Policy(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<PolicyError> for ApiError {
    fn from(error: PolicyError) -> ApiError {
        ApiError::Policy(error)
    }
}

/// Where a request's reference stream comes from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSource {
    /// The full ten-benchmark workload bundle (the `experiments` driver's
    /// figure sweeps). Not loadable as a single stream — [`load`] rejects
    /// it — but valid for session-only requests.
    #[default]
    Workloads,
    /// A `dynex-trace` file on disk (binary `.dxt` or text, by magic).
    Path(PathBuf),
    /// A synthetic SPEC'89 profile by name, generated at the request's
    /// `refs` budget.
    Profile(String),
}

/// Parses a `--kinds` argument.
pub fn parse_kinds(s: &str) -> Option<KindFilter> {
    Some(match s {
        "all" => KindFilter::All,
        "instr" => KindFilter::Instructions,
        "data" => KindFilter::Data,
        _ => return None,
    })
}

/// Stable name of a [`KindFilter`], exactly the `--kinds` argument value.
pub fn kinds_name(kinds: KindFilter) -> &'static str {
    match kinds {
        KindFilter::All => "all",
        KindFilter::Instructions => "instr",
        KindFilter::Data => "data",
    }
}

/// Parses a byte size with optional `K`/`M` suffix (`"32K"` → 32768).
pub fn parse_size(text: &str) -> Option<u32> {
    let text = text.trim();
    let value = if let Some(kb) = text.strip_suffix(['K', 'k']) {
        kb.parse::<u32>().ok().and_then(|v| v.checked_mul(1024))
    } else if let Some(mb) = text.strip_suffix(['M', 'm']) {
        mb.parse::<u32>()
            .ok()
            .and_then(|v| v.checked_mul(1024 * 1024))
    } else {
        text.parse().ok()
    };
    value.filter(|&v| v > 0)
}

/// One fully validated simulation request.
///
/// Construct through [`SimulationRequest::builder`] (CLI strings, loud env
/// overrides) or [`SimulationRequest::from_json`] (the wire format); both
/// run the same validation. Field additions must be classified in the
/// key schema (see [`verify_key_schema`]) — the exhaustive destructuring in
/// [`SimulationRequest::to_json`] makes forgetting a compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationRequest {
    /// The policy (and with it, the cache organization) to simulate.
    pub policy: PolicyKind,
    /// Cache capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Which reference kinds to simulate.
    pub kinds: KindFilter,
    /// Simulation kernel (bit-identical either way; a performance choice).
    pub kernel: Kernel,
    /// Resolved engine worker count (≥ 1; results are worker-count
    /// invariant).
    pub jobs: usize,
    /// Reference budget for generated workloads ([`TraceSource::Profile`] /
    /// [`TraceSource::Workloads`]); ignored for file traces.
    pub refs: usize,
    /// The reference stream.
    pub trace: TraceSource,
    /// Lenient-read budget: tolerate up to this many corrupt trace records
    /// (`None` = strict).
    pub max_skipped: Option<u64>,
    /// Soft per-request deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
    /// Checkpoint journal path for resumable runs (`None` = no journal).
    pub resume: Option<PathBuf>,
}

impl Default for SimulationRequest {
    fn default() -> SimulationRequest {
        SimulationRequest {
            policy: PolicyKind::DirectMapped,
            size_bytes: crate::HEADLINE_SIZE,
            line_bytes: 4,
            kinds: KindFilter::All,
            kernel: Kernel::default(),
            jobs: 1,
            refs: 4_000_000,
            trace: TraceSource::Workloads,
            max_skipped: None,
            deadline_ms: None,
            resume: None,
        }
    }
}

impl SimulationRequest {
    /// Starts a builder with every field at its default.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// The validated cache configuration this request simulates
    /// (associativity follows the policy).
    pub fn cache_config(&self) -> Result<CacheConfig, ApiError> {
        CacheConfig::new(
            self.size_bytes,
            self.line_bytes,
            self.policy.associativity(),
        )
        .map_err(|e| ApiError::Invalid {
            field: "size/line",
            message: e.to_string(),
        })
    }

    /// The content key for this request over the decoded reference stream,
    /// byte-compatible with the PR 3 `simcache --resume` journal keys.
    ///
    /// Fails loudly ([`ApiError::KeySchema`]) if any request field is not
    /// classified by the key schema — see [`verify_key_schema`].
    pub fn content_key(&self, addrs: &[u32]) -> Result<String, ApiError> {
        verify_key_schema(self)?;
        Ok(job_key(&[
            "simcache/v1",
            self.policy.name(),
            kinds_name(self.kinds),
            &format!("size={} line={}", self.size_bytes, self.line_bytes),
            &format!("{:016x}", trace_digest(addrs)),
        ]))
    }

    /// A cheap shard-routing key over the request *description*, for
    /// placing requests onto serve shards without decoding the trace.
    ///
    /// [`SimulationRequest::content_key`] is exact but needs the decoded
    /// reference stream (the expensive part of a request); a router that
    /// computed it would have to load every trace itself. The routing key
    /// instead hashes the request fields that *determine* the content key —
    /// the KEY_COVERED fields plus the inputs to the trace digest (trace
    /// source, and refs / max_skipped where they can change the decoded
    /// stream) — so two requests that are field-identical always share a
    /// routing key and land on the same shard's result cache. Two requests
    /// that *describe* the same content differently (say, a profile trace
    /// and a file containing the identical stream) may route to different
    /// shards; that costs one duplicate cache entry, never correctness.
    ///
    /// Fails loudly ([`ApiError::KeySchema`]) on an unclassified field,
    /// exactly like [`SimulationRequest::content_key`], so a field added to
    /// the request can never silently split or collide routing.
    pub fn routing_key(&self) -> Result<String, ApiError> {
        verify_key_schema(self)?;
        // Normalize the digest-determining fields per trace source: refs is
        // ignored when the stream comes from a file, and a lenient-read
        // budget can only change the decoded stream of a file trace.
        let (trace_part, refs_part, skipped_part) = match &self.trace {
            TraceSource::Workloads => (
                "trace=workloads".to_owned(),
                format!("refs={}", self.refs),
                "max_skipped=-".to_owned(),
            ),
            TraceSource::Profile(name) => (
                format!("trace=profile:{name}"),
                format!("refs={}", self.refs),
                "max_skipped=-".to_owned(),
            ),
            TraceSource::Path(path) => (
                format!("trace=path:{}", path.display()),
                "refs=file".to_owned(),
                match self.max_skipped {
                    Some(n) => format!("max_skipped={n}"),
                    None => "max_skipped=-".to_owned(),
                },
            ),
        };
        Ok(job_key(&[
            "route/v1",
            self.policy.name(),
            kinds_name(self.kinds),
            &format!("size={} line={}", self.size_bytes, self.line_bytes),
            &trace_part,
            &refs_part,
            &skipped_part,
        ]))
    }

    /// Serializes the request as one canonical JSON object. Every field is
    /// always present (absent options serialize as `null`), so the key
    /// order and field set are stable — [`verify_key_schema`] relies on
    /// this to enumerate the fields at runtime.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring, deliberately without `..`: adding a
        // field to SimulationRequest fails to compile here until the field
        // is serialized below AND classified in the key schema.
        let SimulationRequest {
            policy,
            size_bytes,
            line_bytes,
            kinds,
            kernel,
            jobs,
            refs,
            trace,
            max_skipped,
            deadline_ms,
            resume,
        } = self;
        let trace_json = match trace {
            TraceSource::Workloads => r#"{"source":"workloads"}"#.to_owned(),
            TraceSource::Path(p) => format!(
                r#"{{"source":"path","path":"{}"}}"#,
                json::escape(&p.display().to_string())
            ),
            TraceSource::Profile(name) => {
                format!(
                    r#"{{"source":"profile","profile":"{}"}}"#,
                    json::escape(name)
                )
            }
        };
        let opt_u64 = |v: &Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        };
        let resume_json = match resume {
            Some(p) => format!(r#""{}""#, json::escape(&p.display().to_string())),
            None => "null".to_owned(),
        };
        format!(
            concat!(
                r#"{{"policy":"{}","size_bytes":{},"line_bytes":{},"kinds":"{}","#,
                r#""kernel":"{}","jobs":{},"refs":{},"trace":{},"#,
                r#""max_skipped":{},"deadline_ms":{},"resume":{}}}"#
            ),
            policy.name(),
            size_bytes,
            line_bytes,
            kinds_name(*kinds),
            kernel.name(),
            jobs,
            refs,
            trace_json,
            opt_u64(max_skipped),
            opt_u64(deadline_ms),
            resume_json,
        )
    }

    /// Parses a request from its JSON wire format, running the full builder
    /// validation. Unknown fields are rejected loudly.
    pub fn from_json(text: &str) -> Result<SimulationRequest, ApiError> {
        let value = json::parse(text).map_err(|e| ApiError::Invalid {
            field: "request",
            message: format!("not valid JSON: {e}"),
        })?;
        let Json::Obj(map) = &value else {
            return Err(ApiError::Invalid {
                field: "request",
                message: "the request body must be a JSON object".to_owned(),
            });
        };
        const KNOWN: &[&str] = &[
            "policy",
            "org",
            "size",
            "size_bytes",
            "line_bytes",
            "line",
            "kinds",
            "kernel",
            "jobs",
            "refs",
            "trace",
            "max_skipped",
            "deadline_ms",
            "resume",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(ApiError::Invalid {
                    field: "request",
                    message: format!("unknown field {key:?} (known: {KNOWN:?})"),
                });
            }
        }

        let mut builder = SimulationRequest::builder();
        let str_field = |name: &'static str| -> Result<Option<String>, ApiError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => {
                    v.as_str()
                        .map(|s| Some(s.to_owned()))
                        .ok_or_else(|| ApiError::Invalid {
                            field: name,
                            message: "expected a string".to_owned(),
                        })
                }
            }
        };
        let u64_field = |name: &'static str| -> Result<Option<u64>, ApiError> {
            match value.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or_else(|| ApiError::Invalid {
                    field: name,
                    message: "expected a non-negative integer".to_owned(),
                }),
            }
        };

        // `policy` is the canonical field to_json emits; `org` is the
        // pre-PR-10 wire name, still accepted so recorded requests replay.
        if let Some(policy) = str_field("policy")?.or(str_field("org")?) {
            builder.policy(&policy);
        }
        // `size` accepts either a number of bytes or a "32K"-style string;
        // `size_bytes` is the canonical numeric form to_json emits.
        match value.get("size").or_else(|| value.get("size_bytes")) {
            None | Some(Json::Null) => {}
            Some(Json::Str(s)) => {
                builder.size(s);
            }
            Some(v) => {
                let bytes = v.as_u64().ok_or_else(|| ApiError::Invalid {
                    field: "size",
                    message: "expected bytes or a \"32K\"-style string".to_owned(),
                })?;
                builder.size(&bytes.to_string());
            }
        }
        if let Some(line) = u64_field("line")?.or(u64_field("line_bytes")?) {
            let line = u32::try_from(line).map_err(|_| ApiError::Invalid {
                field: "line",
                message: format!("{line} does not fit in 32 bits"),
            })?;
            builder.line(line);
        }
        if let Some(kinds) = str_field("kinds")? {
            builder.kinds(&kinds);
        }
        if let Some(kernel) = str_field("kernel")? {
            builder.kernel(&kernel);
        }
        if let Some(jobs) = u64_field("jobs")? {
            let jobs = usize::try_from(jobs).map_err(|_| ApiError::Invalid {
                field: "jobs",
                message: format!("{jobs} does not fit in usize"),
            })?;
            builder.jobs(jobs);
        }
        if let Some(refs) = u64_field("refs")? {
            let refs = usize::try_from(refs).map_err(|_| ApiError::Invalid {
                field: "refs",
                message: format!("{refs} does not fit in usize"),
            })?;
            builder.refs(refs);
        }
        match value.get("trace") {
            None | Some(Json::Null) => {}
            Some(t) => {
                let source = t.get("source").and_then(Json::as_str).unwrap_or("");
                match source {
                    "workloads" => {
                        builder.workloads();
                    }
                    "path" => {
                        let path = t.get("path").and_then(Json::as_str).ok_or_else(|| {
                            ApiError::Invalid {
                                field: "trace",
                                message: "\"path\" source needs a \"path\" field".to_owned(),
                            }
                        })?;
                        builder.trace_path(path);
                    }
                    "profile" => {
                        let name = t.get("profile").and_then(Json::as_str).ok_or_else(|| {
                            ApiError::Invalid {
                                field: "trace",
                                message: "\"profile\" source needs a \"profile\" field".to_owned(),
                            }
                        })?;
                        builder.profile(name);
                    }
                    other => {
                        return Err(ApiError::Invalid {
                            field: "trace",
                            message: format!("unknown source {other:?} (workloads|path|profile)"),
                        })
                    }
                }
            }
        }
        if let Some(max_skipped) = u64_field("max_skipped")? {
            builder.lenient(max_skipped);
        }
        if let Some(deadline) = u64_field("deadline_ms")? {
            builder.deadline_ms(deadline);
        }
        if let Some(resume) = str_field("resume")? {
            builder.resume(resume);
        }
        builder.build()
    }
}

/// Verifies that every [`SimulationRequest`] field is classified by the
/// key-derivation schema (version [`KEY_SCHEMA_VERSION`]): hashed directly,
/// covered via the trace digest, or intentionally excluded.
///
/// The field set is enumerated at runtime from the request's own canonical
/// JSON serialization, so a field that reaches the wire format without a
/// classification fails loudly here — the guard against silent key
/// collisions from fields added after the schema was defined.
pub fn verify_key_schema(request: &SimulationRequest) -> Result<(), ApiError> {
    let mut classified: BTreeSet<&str> = BTreeSet::new();
    for &field in KEY_COVERED.iter().chain(KEY_VIA_DIGEST).chain(KEY_EXCLUDED) {
        if !classified.insert(field) {
            return Err(ApiError::KeySchema(format!(
                "field {field:?} is classified twice (schema v{KEY_SCHEMA_VERSION})"
            )));
        }
    }
    let serialized = json::parse(&request.to_json()).map_err(|e| {
        ApiError::KeySchema(format!("request serialization is not valid JSON: {e}"))
    })?;
    let Json::Obj(map) = serialized else {
        return Err(ApiError::KeySchema(
            "request serialization is not a JSON object".to_owned(),
        ));
    };
    for field in map.keys() {
        if !classified.remove(field.as_str()) {
            return Err(ApiError::KeySchema(format!(
                "request field {field:?} is not covered by key schema v{KEY_SCHEMA_VERSION}: \
                 classify it in KEY_COVERED, KEY_VIA_DIGEST, or KEY_EXCLUDED \
                 (and bump KEY_SCHEMA_VERSION if it affects results)"
            )));
        }
    }
    if let Some(stale) = classified.iter().next() {
        return Err(ApiError::KeySchema(format!(
            "key schema v{KEY_SCHEMA_VERSION} classifies {stale:?}, which is not a request field"
        )));
    }
    Ok(())
}

/// Builder for [`SimulationRequest`]: accepts raw CLI strings, validates
/// everything at [`RequestBuilder::build`], and resolves the `DYNEX_JOBS` /
/// `DYNEX_REFS` environment overrides exactly once — loudly.
#[derive(Debug, Default, Clone)]
pub struct RequestBuilder {
    policy: Option<String>,
    size: Option<String>,
    line: Option<u32>,
    kinds: Option<String>,
    kernel: Option<String>,
    jobs: Option<usize>,
    refs: Option<usize>,
    trace: Option<TraceSource>,
    max_skipped: Option<u64>,
    deadline_ms: Option<u64>,
    resume: Option<PathBuf>,
}

impl RequestBuilder {
    /// Sets the policy from its `--policy` (or legacy `--org`) string.
    pub fn policy(&mut self, policy: &str) -> &mut Self {
        self.policy = Some(policy.to_owned());
        self
    }

    /// Sets the cache size from a `--size` string (`"32K"`, `"1M"`, bytes).
    pub fn size(&mut self, size: &str) -> &mut Self {
        self.size = Some(size.to_owned());
        self
    }

    /// Sets the line size in bytes.
    pub fn line(&mut self, line: u32) -> &mut Self {
        self.line = Some(line);
        self
    }

    /// Sets the reference-kind filter from its `--kinds` string.
    pub fn kinds(&mut self, kinds: &str) -> &mut Self {
        self.kinds = Some(kinds.to_owned());
        self
    }

    /// Sets the kernel from its `--kernel` string.
    pub fn kernel(&mut self, kernel: &str) -> &mut Self {
        self.kernel = Some(kernel.to_owned());
        self
    }

    /// Sets an explicit worker count (overrides `DYNEX_JOBS`).
    pub fn jobs(&mut self, jobs: usize) -> &mut Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets an explicit reference budget (overrides `DYNEX_REFS`).
    pub fn refs(&mut self, refs: usize) -> &mut Self {
        self.refs = Some(refs);
        self
    }

    /// Sources references from a trace file.
    pub fn trace_path(&mut self, path: impl AsRef<Path>) -> &mut Self {
        self.trace = Some(TraceSource::Path(path.as_ref().to_path_buf()));
        self
    }

    /// Sources references from a named synthetic SPEC'89 profile.
    pub fn profile(&mut self, name: &str) -> &mut Self {
        self.trace = Some(TraceSource::Profile(name.to_owned()));
        self
    }

    /// Sources references from the full workload bundle (figure sweeps).
    pub fn workloads(&mut self) -> &mut Self {
        self.trace = Some(TraceSource::Workloads);
        self
    }

    /// Tolerates up to `max_skipped` corrupt trace records.
    pub fn lenient(&mut self, max_skipped: u64) -> &mut Self {
        self.max_skipped = Some(max_skipped);
        self
    }

    /// Sets a soft per-request deadline in milliseconds.
    pub fn deadline_ms(&mut self, deadline_ms: u64) -> &mut Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Checkpoints results into (and replays them from) a journal file.
    pub fn resume(&mut self, path: impl AsRef<Path>) -> &mut Self {
        self.resume = Some(path.as_ref().to_path_buf());
        self
    }

    /// Validates every field and resolves the environment overrides.
    ///
    /// This is the workspace's **single** env-override path: `DYNEX_JOBS`
    /// and `DYNEX_REFS` are validated here even when an explicit flag
    /// overrides them, so a typo'd variable always fails loudly instead of
    /// silently running a default.
    pub fn build(&self) -> Result<SimulationRequest, ApiError> {
        // Environment overrides: validated unconditionally, used only when
        // no explicit value was set.
        let env_jobs = dynex_engine::env_jobs().map_err(ApiError::Env)?;
        let env_refs = env_refs().map_err(ApiError::Env)?;

        let policy = match &self.policy {
            None => PolicyKind::DirectMapped,
            Some(raw) => PolicyKind::parse(raw).map_err(|e| ApiError::Invalid {
                field: "--policy",
                message: e.to_string(),
            })?,
        };
        let size_bytes = match &self.size {
            None => crate::HEADLINE_SIZE,
            Some(raw) => parse_size(raw).ok_or_else(|| ApiError::Invalid {
                field: "--size",
                message: format!("{raw:?} (positive bytes, NK, or NM)"),
            })?,
        };
        let line_bytes = match self.line {
            None => 4,
            Some(0) => {
                return Err(ApiError::Invalid {
                    field: "--line",
                    message: "line size must be positive".to_owned(),
                })
            }
            Some(line) => line,
        };
        let kinds = match &self.kinds {
            None => KindFilter::All,
            Some(raw) => parse_kinds(raw).ok_or_else(|| ApiError::Invalid {
                field: "--kinds",
                message: format!("{raw:?} (all|instr|data)"),
            })?,
        };
        let kernel = match &self.kernel {
            None => Kernel::default(),
            Some(raw) => Kernel::parse(raw).ok_or_else(|| ApiError::Invalid {
                field: "--kernel",
                message: format!("{raw:?} (reference|batch|sweep)"),
            })?,
        };
        let jobs = match self.jobs {
            Some(0) => {
                return Err(ApiError::Invalid {
                    field: "--jobs",
                    message: "worker count must be positive".to_owned(),
                })
            }
            Some(jobs) => jobs,
            None => env_jobs.unwrap_or_else(dynex_engine::available_jobs),
        };
        let refs = match self.refs {
            Some(0) => {
                return Err(ApiError::Invalid {
                    field: "--refs",
                    message: "reference budget must be positive".to_owned(),
                })
            }
            Some(refs) => refs,
            None => env_refs.unwrap_or(4_000_000),
        };
        let trace = self.trace.clone().unwrap_or_default();
        if let TraceSource::Profile(name) = &trace {
            if dynex_workload::spec::profile(name).is_none() {
                return Err(ApiError::Invalid {
                    field: "trace",
                    message: format!(
                        "unknown workload profile {name:?} (see dynex_workload::spec::all)"
                    ),
                });
            }
        }

        let request = SimulationRequest {
            policy,
            size_bytes,
            line_bytes,
            kinds,
            kernel,
            jobs,
            refs,
            trace,
            max_skipped: self.max_skipped,
            deadline_ms: self.deadline_ms,
            resume: self.resume.clone(),
        };
        // Geometry validation (power-of-two sizes, line|size divisibility).
        request.cache_config()?;
        // Fail at construction, not first use, if the key schema is stale.
        verify_key_schema(&request)?;
        Ok(request)
    }
}

/// Parses `DYNEX_REFS`: `Ok(None)` when unset, `Err` on anything that is
/// not a positive integer — a typo'd budget must fail loudly, not silently
/// run the default.
fn env_refs() -> Result<Option<usize>, String> {
    match std::env::var("DYNEX_REFS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err("DYNEX_REFS is not valid unicode".to_owned()),
        Ok(raw) => match raw.parse::<usize>() {
            Ok(0) => Err("DYNEX_REFS must be a positive integer, got 0".to_owned()),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!(
                "DYNEX_REFS must be a positive integer, got {raw:?}"
            )),
        },
    }
}

/// The result of one simulation request.
///
/// `render_text` reproduces the `simcache` CLI's output for the same
/// request byte-for-byte; `to_json` is the `dynex-serve` wire format. Both
/// are pure functions of the fields, so a served response and an offline
/// run are byte-identical whenever the statistics are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResponse {
    /// Human-readable organization label (e.g. `"direct-mapped 32KB ..."`).
    pub label: String,
    /// Hit/miss statistics.
    pub stats: CacheStats,
    /// Exclusion counters, for dynamic-exclusion runs only.
    pub de: Option<DeStats>,
    /// The request's content key (journal/cache key).
    pub key: String,
    /// `true` when the result was served from a journal or result cache
    /// without re-simulation.
    pub cached: bool,
}

impl SimulationResponse {
    /// Renders the response exactly as the `simcache` CLI prints it.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}: {} accesses, {} misses, miss rate {:.4}%\n",
            self.label,
            self.stats.accesses(),
            self.stats.misses(),
            self.stats.miss_rate_percent()
        );
        if let Some(de) = self.de {
            out.push_str(&format!("  loads {} bypasses {}\n", de.loads, de.bypasses));
        }
        if self.stats.probes() != 0 {
            out.push_str(&format!(
                "  fills {} writebacks {} bandwidth {:.1} transfers/kiloref\n",
                self.stats.fills(),
                self.stats.writebacks(),
                self.stats.bandwidth_per_kiloref()
            ));
        }
        out
    }

    /// Serializes the response as one JSON object (the service wire
    /// format). Deterministic: the bytes are a pure function of the fields.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            r#"{{"label":"{}","accesses":{},"misses":{},"miss_rate":{}"#,
            json::escape(&self.label),
            self.stats.accesses(),
            self.stats.misses(),
            self.stats.miss_rate_percent()
        );
        if let Some(de) = self.de {
            out.push_str(&format!(
                r#","loads":{},"bypasses":{}"#,
                de.loads, de.bypasses
            ));
        }
        // Traffic counters appear only for traffic-accounting policies, so
        // legacy responses stay byte-identical to the pre-PR-10 format.
        if self.stats.probes() != 0 {
            out.push_str(&format!(
                r#","fills":{},"writebacks":{},"probes":{}"#,
                self.stats.fills(),
                self.stats.writebacks(),
                self.stats.probes()
            ));
        }
        out.push_str(&format!(
            r#","key":"{}","cached":{}}}"#,
            json::escape(&self.key),
            self.cached
        ));
        out
    }

    /// Parses [`SimulationResponse::to_json`] back; `None` on any shape
    /// mismatch.
    pub fn from_json(text: &str) -> Option<SimulationResponse> {
        let v = json::parse(text).ok()?;
        let accesses = v.get("accesses")?.as_u64()?;
        let misses = v.get("misses")?.as_u64()?;
        if misses > accesses {
            return None;
        }
        let de = match (v.get("loads"), v.get("bypasses")) {
            (Some(l), Some(b)) => Some(DeStats {
                loads: l.as_u64()?,
                bypasses: b.as_u64()?,
            }),
            _ => None,
        };
        Some(SimulationResponse {
            label: v.get("label")?.as_str()?.to_owned(),
            stats: stats_from_json(&v, accesses, misses)?,
            de,
            key: v.get("key")?.as_str()?.to_owned(),
            cached: v.get("cached")?.as_bool()?,
        })
    }
}

/// Rebuilds [`CacheStats`] from a JSON object holding the mandatory hit/miss
/// counters plus the optional traffic counters (absent on legacy records,
/// which is exactly the all-zero traffic state they were produced with).
fn stats_from_json(v: &Json, accesses: u64, misses: u64) -> Option<CacheStats> {
    match (v.get("fills"), v.get("writebacks"), v.get("probes")) {
        (None, None, None) => Some(CacheStats::from_counts(accesses, misses)),
        (Some(f), Some(w), Some(p)) => Some(CacheStats::from_traffic_counts(
            accesses,
            misses,
            f.as_u64()?,
            w.as_u64()?,
            p.as_u64()?,
        )),
        _ => None,
    }
}

/// Journal value for one simulation result (label + raw counters; every
/// derived number is a pure function of these). Byte-compatible with the
/// PR 3 `simcache --resume` journal records, so existing journals replay
/// and warm-start the service.
pub fn result_to_journal(label: &str, stats: CacheStats, de: Option<DeStats>) -> String {
    let mut out = format!(
        r#"{{"label":"{}","accesses":{},"misses":{}"#,
        json::escape(label),
        stats.accesses(),
        stats.misses(),
    );
    if let Some(de) = de {
        out.push_str(&format!(
            r#","loads":{},"bypasses":{}"#,
            de.loads, de.bypasses
        ));
    }
    if stats.probes() != 0 {
        out.push_str(&format!(
            r#","fills":{},"writebacks":{},"probes":{}"#,
            stats.fills(),
            stats.writebacks(),
            stats.probes()
        ));
    }
    out.push('}');
    out
}

/// Decodes [`result_to_journal`]; `None` on any shape mismatch (the caller
/// then re-simulates, so a stale or foreign record is harmless).
pub fn result_from_journal(v: &Json) -> Option<(String, CacheStats, Option<DeStats>)> {
    let label = v.get("label")?.as_str()?.to_owned();
    let accesses = v.get("accesses")?.as_u64()?;
    let misses = v.get("misses")?.as_u64()?;
    if misses > accesses {
        return None;
    }
    let de = match (v.get("loads"), v.get("bypasses")) {
        (Some(l), Some(b)) => Some(DeStats {
            loads: l.as_u64()?,
            bypasses: b.as_u64()?,
        }),
        _ => None,
    };
    Some((label, stats_from_json(v, accesses, misses)?, de))
}

/// A loaded, filtered, decoded reference stream.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The decoded byte-address stream: every simulator and the content
    /// digest read only addresses, so this is the trace's one copy.
    pub addrs: Vec<u32>,
    /// Corrupt records skipped during a lenient read (0 under strict).
    pub skipped: u64,
}

/// Loads, filters, and decodes the request's reference stream.
///
/// [`TraceSource::Workloads`] is rejected — it describes the full figure
/// bundle, not a single loadable stream.
pub fn load(request: &SimulationRequest) -> Result<LoadedTrace, ApiError> {
    let policy = match request.max_skipped {
        Some(max_skipped) => ReadPolicy::Lenient { max_skipped },
        None => ReadPolicy::Strict,
    };
    let (trace, skipped) = match &request.trace {
        TraceSource::Workloads => {
            return Err(ApiError::Trace(
                "the workloads source is the figure bundle; single-stream \
                 execution needs a path or profile trace source"
                    .to_owned(),
            ))
        }
        TraceSource::Path(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| ApiError::Trace(format!("cannot read {}: {e}", path.display())))?;
            let result = if bytes.starts_with(&trace_io::BINARY_MAGIC) {
                trace_io::read_binary_with(&bytes[..], policy, NoopProbe)
            } else {
                trace_io::read_text_with(&bytes[..], policy, NoopProbe)
            };
            let (trace, report) =
                result.map_err(|e| ApiError::Trace(format!("{}: {e}", path.display())))?;
            (trace, report.skipped)
        }
        TraceSource::Profile(name) => {
            let profile = dynex_workload::spec::profile(name)
                .ok_or_else(|| ApiError::Trace(format!("unknown workload profile {name:?}")))?;
            (profile.trace(request.refs), 0)
        }
    };
    Ok(filter_trace(&trace, request.kinds, skipped))
}

/// Applies the kind filter to a loaded trace and decodes the byte-address
/// stream (shared with callers that load traces themselves).
pub fn filter_trace(trace: &Trace, kinds: KindFilter, skipped: u64) -> LoadedTrace {
    LoadedTrace {
        addrs: decode_addrs(trace.as_packed(), kinds),
        skipped,
    }
}

/// Simulates the request over an already-loaded trace. Pure execution: no
/// journal consultation, `cached` is always `false`.
pub fn execute(
    request: &SimulationRequest,
    trace: &LoadedTrace,
) -> Result<SimulationResponse, ApiError> {
    let key = request.content_key(&trace.addrs)?;
    execute_with_key(request, trace, key)
}

fn execute_with_key(
    request: &SimulationRequest,
    trace: &LoadedTrace,
    key: String,
) -> Result<SimulationResponse, ApiError> {
    let config = request.cache_config()?;
    let PolicyRun { label, stats, de } = request.policy.run(request.kernel, config, &trace.addrs);
    Ok(SimulationResponse {
        label,
        stats,
        de,
        key,
        cached: false,
    })
}

/// Answers a coalesced batch of same-trace requests with one engine call
/// ([`run_jobs`]) per kernel class in the batch: on the fast path every
/// dm/de/opt or last-line point shares one trace traversal, and every other
/// request (ehc, bwcost, the set-associative and buffered caches) runs
/// alone inside the same call. Each response is byte-identical to what
/// [`execute`] would have produced for that request alone (same label,
/// statistics, DE counters, and content key).
///
/// The caller (the `dynex-serve` dispatcher) is responsible for grouping:
/// every request in the batch must decode to the same reference stream —
/// `trace` is simulated once for all of them.
pub fn execute_many(
    requests: &[&SimulationRequest],
    trace: &LoadedTrace,
) -> Result<Vec<SimulationResponse>, ApiError> {
    let mut jobs = Vec::with_capacity(requests.len());
    let mut keys = Vec::with_capacity(requests.len());
    for request in requests {
        jobs.push(Job::new(request.cache_config()?, request.policy));
        keys.push(request.content_key(&trace.addrs)?);
    }
    // Reference requests run their spec simulators; the rest share one
    // fast-path call (`batch` and `sweep` name the same code).
    let mut runs = vec![None; jobs.len()];
    for kernel in [Kernel::Reference, Kernel::Batch] {
        let members: Vec<usize> = (0..requests.len())
            .filter(|&i| (requests[i].kernel == Kernel::Reference) == (kernel == Kernel::Reference))
            .collect();
        let group: Vec<Job> = members.iter().map(|&i| jobs[i]).collect();
        let results = run_jobs(
            kernel,
            &group,
            &trace.addrs,
            &mut vec![NoopProbe; group.len()],
        );
        for (i, run) in members.into_iter().zip(results) {
            runs[i] = Some(run);
        }
    }
    Ok(jobs
        .iter()
        .zip(runs)
        .zip(keys)
        .map(|((job, run), key)| {
            let (stats, de) = run.expect("every request belongs to one kernel class");
            SimulationResponse {
                label: job.policy.label(job.config),
                stats,
                de,
                key,
                cached: false,
            }
        })
        .collect())
}

/// Runs the request over an already-loaded trace, consulting the engine's
/// global journal: a checkpointed result replays (`cached: true`) and a
/// fresh one is recorded before returning.
pub fn run_loaded(
    request: &SimulationRequest,
    trace: &LoadedTrace,
) -> Result<SimulationResponse, ApiError> {
    let key = request.content_key(&trace.addrs)?;
    let replayed = with_global_journal(|journal| journal.lookup(&key)).flatten();
    if let Some(value) = &replayed {
        if let Some((label, stats, de)) = result_from_journal(value) {
            return Ok(SimulationResponse {
                label,
                stats,
                de,
                key,
                cached: true,
            });
        }
        eprintln!("warning: journal record for this request is malformed; re-simulating");
    }
    let response = execute_with_key(request, trace, key)?;
    with_global_journal(|journal| {
        if let Err(e) = journal.record(
            &response.key,
            &result_to_journal(&response.label, response.stats, response.de),
        ) {
            eprintln!("warning: {e}");
        }
    });
    Ok(response)
}

/// Loads the trace and runs the request ([`load`] + [`run_loaded`]).
pub fn run(request: &SimulationRequest) -> Result<SimulationResponse, ApiError> {
    let trace = load(request)?;
    run_loaded(request, &trace)
}

/// What [`install_session`] applied, for driver log lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// The installed worker count.
    pub jobs: usize,
    /// The installed kernel.
    pub kernel: Kernel,
    /// Resume journal details, when one was opened.
    pub journal: Option<JournalInfo>,
}

/// Details of an opened resume journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInfo {
    /// The journal file.
    pub path: PathBuf,
    /// Checkpointed points loaded at open.
    pub len: usize,
    /// Torn lines dropped while loading.
    pub dropped_lines: u64,
}

/// Applies the request's session-wide knobs exactly once: the engine
/// worker count, the kernel, and (when `resume` is set) the process-wide
/// journal. Drivers call this after building their request instead of
/// spreading `set_default_*` calls through their argument parsing.
pub fn install_session(request: &SimulationRequest) -> Result<SessionReport, ApiError> {
    dynex_engine::set_default_jobs(request.jobs);
    dynex_engine::set_default_kernel(request.kernel);
    let journal = match &request.resume {
        None => None,
        Some(path) => {
            let journal = Journal::open(path).map_err(|e| ApiError::Journal(e.to_string()))?;
            let info = JournalInfo {
                path: path.clone(),
                len: journal.len(),
                dropped_lines: journal.dropped_lines(),
            };
            dynex_engine::set_global_journal(Some(journal));
            Some(info)
        }
    };
    Ok(SessionReport {
        jobs: request.jobs,
        kernel: request.kernel,
        journal,
    })
}

/// Which three policies a figure [`Triple`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TripleKind {
    /// DM, DE and OPT: the word-line figures (3–5, 14, 15).
    Plain,
    /// DM, with DE and OPT behind the Section 6 last-line buffer: the
    /// multi-word-line figures (11, 12).
    LastLine,
}

impl TripleKind {
    /// The `dm`, `de` and `opt` members of the triple, in that order.
    fn policies(self) -> [PolicyKind; 3] {
        match self {
            TripleKind::Plain => [
                PolicyKind::DirectMapped,
                PolicyKind::DynamicExclusion,
                PolicyKind::OptimalDm,
            ],
            TripleKind::LastLine => [
                PolicyKind::DirectMapped,
                PolicyKind::DeLastLine,
                PolicyKind::OptimalDmLastLine,
            ],
        }
    }

    /// The journal tag that leads every checkpoint key of this triple.
    fn journal_tag(self) -> &'static str {
        match self {
            TripleKind::Plain => "triple/v1",
            TripleKind::LastLine => "triple-lastline/v1",
        }
    }
}

/// Runs the three-way DM/DE/OPT comparison with an explicit kernel: a
/// one-configuration [`run_triples`].
pub fn run_triple(kernel: Kernel, config: CacheConfig, addrs: &[u32]) -> Triple {
    run_triples(kernel, &[config], addrs)
        .pop()
        .expect("one config in, one triple out")
}

/// Runs the DM/DE/OPT triple for *many* configurations over one shared
/// trace with an explicit kernel.
///
/// One [`run_jobs`] call: on the fast path ([`Kernel::Batch`] or
/// [`Kernel::Sweep`]) every policy of every configuration rides a single
/// sweep-kernel traversal: one decode per chunk and distinct line size,
/// one next-use oracle per distinct line size, and one trace walk. Under
/// [`Kernel::Reference`] each policy runs its spec simulator. Both produce
/// bit-identical [`Triple`]s, so journal keys and resumed sweeps are
/// kernel-agnostic.
pub fn run_triples(kernel: Kernel, configs: &[CacheConfig], addrs: &[u32]) -> Vec<Triple> {
    triples_of(TripleKind::Plain, kernel, configs, addrs)
}

/// [`run_triples`] for either [`TripleKind`]: one [`run_jobs`] call over
/// every configuration's three policies.
pub(crate) fn triples_of(
    kind: TripleKind,
    kernel: Kernel,
    configs: &[CacheConfig],
    addrs: &[u32],
) -> Vec<Triple> {
    let jobs: Vec<Job> = configs
        .iter()
        .flat_map(|&config| kind.policies().map(|policy| Job::new(config, policy)))
        .collect();
    run_jobs(kernel, &jobs, addrs, &mut vec![NoopProbe; jobs.len()])
        .chunks_exact(3)
        .map(|chunk| Triple {
            dm: chunk[0].0,
            de: chunk[1].0,
            opt: chunk[2].0,
        })
        .collect()
}

/// Runs [`crate::triple`] over many `(config, trace)` sweep points on the
/// engine's worker pool.
///
/// Results are in point order and bit-identical for every worker count.
/// When a sweep journal is installed ([`install_session`] with `resume`),
/// previously completed points are replayed from the checkpoint instead of
/// re-simulated.
pub fn sweep_triples(points: &[(CacheConfig, &[u32])]) -> Vec<Triple> {
    journaled_triples(points, TripleKind::Plain)
}

/// The journal-aware sweep behind [`sweep_triples`] and the averaged
/// figure sweeps, for either [`TripleKind`]: replay checkpointed points,
/// run only the missing ones, and append the fresh results.
///
/// Keys are built only when a journal is installed, with one trace digest
/// per distinct trace slice rather than one per point.
pub(crate) fn journaled_triples(points: &[(CacheConfig, &[u32])], kind: TripleKind) -> Vec<Triple> {
    let keys = match with_global_journal(|_| ()) {
        Some(()) => journal_keys(points, kind.journal_tag()),
        None => Vec::new(),
    };
    let mut slots: Vec<Option<Triple>> = with_global_journal(|journal| {
        keys.iter()
            .map(|k| journal.lookup(k).and_then(|v| triple_from_journal(&v)))
            .collect()
    })
    .unwrap_or_default();
    slots.resize(points.len(), None);

    let missing: Vec<usize> = (0..points.len()).filter(|&i| slots[i].is_none()).collect();
    let todo: Vec<(CacheConfig, &[u32])> = missing.iter().map(|&i| points[i]).collect();
    // Points sharing a trace run as one group: on the fast path a single
    // sweep-kernel traversal, under the reference kernel per point. The
    // keys are kernel-agnostic, so `--resume` replays byte-identically no
    // matter which kernel recorded a point.
    let fresh = sweep_grouped(&todo, kind);

    if !keys.is_empty() {
        with_global_journal(|journal| {
            for (&i, t) in missing.iter().zip(&fresh) {
                if let Err(e) = journal.record(&keys[i], &triple_to_journal(t)) {
                    // A checkpoint append failure must not abort the sweep;
                    // the point simply will not be resumable.
                    eprintln!("warning: {e}");
                }
            }
        });
    }
    for (i, t) in missing.into_iter().zip(fresh) {
        slots[i] = Some(t);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot replayed or simulated"))
        .collect()
}

/// The checkpoint key of every point: the triple's tag, the exact geometry
/// fields, and the trace digest, hashed once per distinct trace slice.
fn journal_keys(points: &[(CacheConfig, &[u32])], tag: &str) -> Vec<String> {
    let mut keys = vec![String::new(); points.len()];
    for (addrs, members) in trace_groups(points) {
        let digest = format!("{:016x}", trace_digest(addrs));
        for i in members {
            let config = points[i].0;
            // Exact fields, not the Display label (which rounds the size to
            // whole KB and would collide sub-KB configurations).
            keys[i] = job_key(&[
                tag,
                &format!(
                    "size={} line={} ways={}",
                    config.size_bytes(),
                    config.line_bytes(),
                    config.associativity()
                ),
                &digest,
            ]);
        }
    }
    keys
}

/// Groups points by trace slice identity (pointer + length), in
/// first-appearance order: the figure sweeps fan one slice per benchmark
/// across many geometries, so identity captures exactly the sharing
/// available. Equal-content slices at different addresses merely land in
/// different groups, which costs speed, never correctness.
fn trace_groups<'a>(points: &[(CacheConfig, &'a [u32])]) -> Vec<(&'a [u32], Vec<usize>)> {
    let mut groups: Vec<(&[u32], Vec<usize>)> = Vec::new();
    for (i, &(_, addrs)) in points.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|(t, _)| t.as_ptr() == addrs.as_ptr() && t.len() == addrs.len())
        {
            Some((_, members)) => members.push(i),
            None => groups.push((addrs, vec![i])),
        }
    }
    groups
}

/// Runs sweep points grouped by trace, one pool job per group, each group
/// through [`triples_of`] with the session kernel. Point order is
/// preserved, so the output is bit-identical to per-point execution for
/// every worker count.
fn sweep_grouped(todo: &[(CacheConfig, &[u32])], kind: TripleKind) -> Vec<Triple> {
    let groups = trace_groups(todo);
    let kernel = default_kernel();
    let per_group = pool_execute(&groups, default_jobs(), |(addrs, members)| {
        let configs: Vec<CacheConfig> = members.iter().map(|&i| todo[i].0).collect();
        triples_of(kind, kernel, &configs, addrs)
    });
    let mut slots: Vec<Option<Triple>> = vec![None; todo.len()];
    for ((_, members), triples) in groups.iter().zip(per_group) {
        for (&i, t) in members.iter().zip(triples) {
            slots[i] = Some(t);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every point belongs to exactly one group"))
        .collect()
}

/// Journal value for one [`Triple`]: `{"dm":[acc,miss],...}` — counters
/// only, since every derived rate is a pure function of them.
fn triple_to_journal(t: &Triple) -> String {
    format!(
        r#"{{"dm":[{},{}],"de":[{},{}],"opt":[{},{}]}}"#,
        t.dm.accesses(),
        t.dm.misses(),
        t.de.accesses(),
        t.de.misses(),
        t.opt.accesses(),
        t.opt.misses(),
    )
}

/// Decodes [`triple_to_journal`]; `None` on any shape mismatch (the caller
/// then re-simulates the point, so a stale or foreign record is harmless).
fn triple_from_journal(v: &Json) -> Option<Triple> {
    let pair = |field: &str| {
        let arr = v.get(field)?.as_array()?;
        match arr {
            [a, m] => {
                let (accesses, misses) = (a.as_u64()?, m.as_u64()?);
                (misses <= accesses).then(|| CacheStats::from_counts(accesses, misses))
            }
            _ => None,
        }
    };
    Some(Triple {
        dm: pair("dm")?,
        de: pair("de")?,
        opt: pair("opt")?,
    })
}

/// Serializes tests that install the process-global journal (shared with
/// `runner`'s tests — the journal is one per process, so concurrent
/// installs would race under the default parallel test harness).
#[cfg(test)]
pub(crate) static JOURNAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{triple, triple_lastline};
    use dynex_trace::Access;

    fn thrash() -> Vec<u32> {
        (0..40).map(|i| if i % 2 == 0 { 0 } else { 64 }).collect()
    }

    fn thrash_request(dir: &std::path::Path) -> (SimulationRequest, PathBuf) {
        let trace: Trace = thrash().into_iter().map(Access::read).collect();
        let path = dir.join("thrash.dxt");
        let mut bytes = Vec::new();
        trace_io::write_binary(&mut bytes, &trace).unwrap();
        std::fs::write(&path, bytes).unwrap();
        let mut b = SimulationRequest::builder();
        b.policy("de").size("64").line(4).trace_path(&path).jobs(1);
        (b.build().unwrap(), path)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dynex-api-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn builder_defaults_and_validation() {
        let request = SimulationRequest::builder().build().unwrap();
        assert_eq!(request.policy, PolicyKind::DirectMapped);
        assert_eq!(request.size_bytes, crate::HEADLINE_SIZE);
        assert_eq!(request.line_bytes, 4);
        assert_eq!(request.kernel, Kernel::Batch);
        assert!(request.jobs >= 1);
        assert_eq!(request.trace, TraceSource::Workloads);

        let err = SimulationRequest::builder()
            .policy("plaid")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("plaid"));
        let err = SimulationRequest::builder()
            .size("zero")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("--size"));
        // Non-power-of-two geometry is caught at build, not first use.
        let err = SimulationRequest::builder()
            .size("100")
            .build()
            .unwrap_err();
        assert!(matches!(err, ApiError::Invalid { .. }), "{err}");
        let err = SimulationRequest::builder()
            .profile("not-a-benchmark")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("not-a-benchmark"));
    }

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("32K"), Some(32 * 1024));
        assert_eq!(parse_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size("0"), None);
        assert_eq!(parse_size("porridge"), None);
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut b = SimulationRequest::builder();
        b.policy("de")
            .size("32K")
            .line(16)
            .kinds("instr")
            .kernel("reference")
            .jobs(3)
            .refs(123_456)
            .profile("gcc")
            .lenient(7)
            .deadline_ms(2500)
            .resume("/tmp/j.jsonl");
        let request = b.build().unwrap();
        let back = SimulationRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(back, request);
        // And the canonical serialization is stable.
        assert_eq!(back.to_json(), request.to_json());
    }

    #[test]
    fn from_json_rejects_unknown_fields_and_bad_shapes() {
        let err = SimulationRequest::from_json(r#"{"orgg":"de"}"#).unwrap_err();
        assert!(err.to_string().contains("orgg"), "{err}");
        let err = SimulationRequest::from_json("[]").unwrap_err();
        assert!(err.to_string().contains("object"));
        let err = SimulationRequest::from_json(r#"{"size":true}"#).unwrap_err();
        assert!(err.to_string().contains("size"));
        let err =
            SimulationRequest::from_json(r#"{"trace":{"source":"carrier-pigeon"}}"#).unwrap_err();
        assert!(err.to_string().contains("carrier-pigeon"));
        // Accepts both the "32K" shorthand and numeric bytes.
        let a = SimulationRequest::from_json(r#"{"size":"32K"}"#).unwrap();
        let b = SimulationRequest::from_json(r#"{"size_bytes":32768}"#).unwrap();
        assert_eq!(a.size_bytes, b.size_bytes);
    }

    #[test]
    fn from_json_rejects_integer_overflow_instead_of_truncating() {
        // 2^32 + 4 would truncate to line=4 with a bare `as u32` cast and
        // silently simulate the wrong geometry.
        let err = SimulationRequest::from_json(r#"{"line":4294967300}"#).unwrap_err();
        assert!(err.to_string().contains("4294967300"), "{err}");
        let err = SimulationRequest::from_json(r#"{"line_bytes":4294967300}"#).unwrap_err();
        assert!(err.to_string().contains("4294967300"), "{err}");
        // In-range values still parse.
        let ok = SimulationRequest::from_json(r#"{"line":64}"#).unwrap();
        assert_eq!(ok.line_bytes, 64);
    }

    #[test]
    fn key_schema_covers_every_field() {
        let request = SimulationRequest::builder().build().unwrap();
        verify_key_schema(&request).unwrap();
        // The classification lists and the serialized field set agree.
        let n = KEY_COVERED.len() + KEY_VIA_DIGEST.len() + KEY_EXCLUDED.len();
        let Json::Obj(map) = json::parse(&request.to_json()).unwrap() else {
            panic!("request serializes as an object");
        };
        assert_eq!(map.len(), n, "every field classified exactly once");
    }

    #[test]
    fn routing_key_tracks_content_determinants_only() {
        let build = |f: &dyn Fn(&mut RequestBuilder)| {
            let mut b = SimulationRequest::builder();
            b.policy("de")
                .size("64")
                .line(4)
                .jobs(1)
                .profile("gcc")
                .refs(50_000);
            f(&mut b);
            b.build().unwrap().routing_key().unwrap()
        };
        let base = build(&|_| {});
        // Deterministic, and insensitive to every key-excluded field: the
        // same content always routes to the same shard regardless of
        // kernel choice, worker count, or deadline.
        assert_eq!(base, build(&|_| {}));
        assert_eq!(
            base,
            build(&|b| {
                b.kernel("reference").jobs(4).deadline_ms(99);
            })
        );
        // Sensitive to every content determinant.
        assert_ne!(
            base,
            build(&|b| {
                b.size("128");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.policy("dm");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.kinds("instr");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.line(16);
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.profile("li");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.refs(60_000);
            })
        );
        // File traces: refs is ignored (the file fixes the stream) but the
        // lenient-read budget is not (skips change the decoded stream).
        let file = |f: &dyn Fn(&mut RequestBuilder)| {
            let mut b = SimulationRequest::builder();
            b.policy("de")
                .size("64")
                .line(4)
                .jobs(1)
                .trace_path("/tmp/t.dxt");
            f(&mut b);
            b.build().unwrap().routing_key().unwrap()
        };
        let file_base = file(&|_| {});
        assert_eq!(
            file_base,
            file(&|b| {
                b.refs(123);
            })
        );
        assert_ne!(
            file_base,
            file(&|b| {
                b.lenient(5);
            })
        );
    }

    #[test]
    fn content_key_matches_pr3_simcache_keys() {
        let addrs = thrash();
        let mut b = SimulationRequest::builder();
        b.policy("de").size("64").line(4).jobs(1).profile("gcc");
        let request = b.build().unwrap();
        // The PR 3 derivation, verbatim.
        let legacy = job_key(&[
            "simcache/v1",
            "de",
            "all",
            "size=64 line=4",
            &format!("{:016x}", trace_digest(&addrs)),
        ]);
        assert_eq!(request.content_key(&addrs).unwrap(), legacy);
    }

    #[test]
    fn key_excludes_kernel_jobs_deadline_but_not_geometry() {
        let addrs = thrash();
        let build = |f: &dyn Fn(&mut RequestBuilder)| {
            let mut b = SimulationRequest::builder();
            b.policy("de").size("64").line(4).jobs(1).profile("gcc");
            f(&mut b);
            b.build().unwrap().content_key(&addrs).unwrap()
        };
        let base = build(&|_| {});
        assert_eq!(
            base,
            build(&|b| {
                b.kernel("reference").jobs(4).deadline_ms(99);
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.size("128");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.policy("dm");
            })
        );
        assert_ne!(
            base,
            build(&|b| {
                b.kinds("instr");
            })
        );
    }

    #[test]
    fn execute_matches_reference_simulators_for_both_kernels() {
        let dir = scratch("execute");
        let (request, _path) = thrash_request(&dir);
        let trace = load(&request).unwrap();
        assert_eq!(trace.addrs.len(), 40);
        assert_eq!(trace.skipped, 0);

        let batch = execute(&request, &trace).unwrap();
        let mut reference_request = request.clone();
        reference_request.kernel = Kernel::Reference;
        let reference = execute(&reference_request, &trace).unwrap();
        assert_eq!(batch, reference, "kernels are bit-identical");
        let mut sweep_request = request.clone();
        sweep_request.kernel = Kernel::Sweep;
        let sweep = execute(&sweep_request, &trace).unwrap();
        assert_eq!(batch, sweep, "sweep kernel is bit-identical too");
        assert!(batch.de.is_some());
        assert!(!batch.cached);
        assert!(batch.render_text().contains("accesses"));

        // Response JSON round-trips.
        let back = SimulationResponse::from_json(&batch.to_json()).unwrap();
        assert_eq!(back, batch);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_replays_from_the_installed_journal() {
        let _guard = JOURNAL_TEST_LOCK.lock().unwrap();
        let dir = scratch("run-journal");
        let (mut request, _path) = thrash_request(&dir);
        request.resume = Some(dir.join("journal.jsonl"));
        install_session(&request).unwrap();
        let first = run(&request).unwrap();
        assert!(!first.cached);
        let second = run(&request).unwrap();
        assert!(second.cached);
        assert_eq!(second.stats, first.stats);
        assert_eq!(second.label, first.label);
        assert_eq!(second.de, first.de);
        dynex_engine::set_global_journal(None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_codec_round_trips() {
        let stats = CacheStats::from_counts(100, 7);
        let de = Some(DeStats {
            loads: 5,
            bypasses: 2,
        });
        let v = json::parse(&result_to_journal("de 64B", stats, de)).unwrap();
        assert_eq!(
            result_from_journal(&v),
            Some(("de 64B".to_owned(), stats, de))
        );
        let impossible = json::parse(r#"{"label":"x","accesses":1,"misses":2}"#).unwrap();
        assert_eq!(result_from_journal(&impossible), None);
    }

    #[test]
    fn run_triple_agrees_across_kernels() {
        let mut rng = dynex_cache::SplitMix64::new(57);
        let addrs: Vec<u32> = (0..10_000).map(|_| (rng.below(4096) as u32) * 4).collect();
        for config in [
            CacheConfig::direct_mapped(64, 4).unwrap(),
            CacheConfig::direct_mapped(1024, 4).unwrap(),
            CacheConfig::direct_mapped(8192, 16).unwrap(),
        ] {
            assert_eq!(
                run_triple(Kernel::Batch, config, &addrs),
                run_triple(Kernel::Reference, config, &addrs),
                "{config}"
            );
            assert_eq!(
                run_triple(Kernel::Batch, config, &addrs),
                run_triple(Kernel::Sweep, config, &addrs),
                "{config} (sweep)"
            );
        }
    }

    #[test]
    fn run_triples_sweep_matches_per_point_triples() {
        let mut rng = dynex_cache::SplitMix64::new(91);
        let addrs: Vec<u32> = (0..12_000).map(|_| (rng.below(8192) as u32) * 4).collect();
        let configs = [
            CacheConfig::direct_mapped(64, 4).unwrap(),
            CacheConfig::direct_mapped(1024, 4).unwrap(),
            CacheConfig::direct_mapped(1024, 4).unwrap(), // duplicate point
            CacheConfig::direct_mapped(8192, 16).unwrap(),
        ];
        let swept = run_triples(Kernel::Sweep, &configs, &addrs);
        assert_eq!(swept.len(), configs.len());
        for (config, got) in configs.iter().zip(&swept) {
            assert_eq!(*got, run_triple(Kernel::Batch, *config, &addrs), "{config}");
        }
        assert_eq!(run_triples(Kernel::Sweep, &[], &addrs), Vec::new());
    }

    #[test]
    fn execute_many_matches_pointwise_execute() {
        let dir = scratch("execute-many");
        let (base, _path) = thrash_request(&dir);
        let trace = load(&base).unwrap();

        let mut requests = Vec::new();
        for (policy, size, kernel) in [
            (PolicyKind::DirectMapped, 64, Kernel::Batch),
            (PolicyKind::DynamicExclusion, 64, Kernel::Batch),
            (PolicyKind::DynamicExclusion, 256, Kernel::Sweep),
            (PolicyKind::OptimalDm, 64, Kernel::Batch),
            (PolicyKind::DeLastLine, 64, Kernel::Batch),
            (PolicyKind::OptimalDmLastLine, 256, Kernel::Batch),
            // Policies without a sweep specialization run alone inside
            // the same call, and reference requests keep their kernel.
            (PolicyKind::ExpectedHitCount, 64, Kernel::Batch),
            (PolicyKind::TwoWay, 256, Kernel::Sweep),
            (PolicyKind::DynamicExclusion, 64, Kernel::Reference),
            (PolicyKind::BandwidthCost, 256, Kernel::Reference),
        ] {
            let mut r = base.clone();
            r.policy = policy;
            r.size_bytes = size;
            r.kernel = kernel;
            requests.push(r);
        }
        let refs: Vec<&SimulationRequest> = requests.iter().collect();
        let fused = execute_many(&refs, &trace).unwrap();
        assert_eq!(fused.len(), requests.len());
        for (request, got) in requests.iter().zip(&fused) {
            assert_eq!(
                *got,
                execute(request, &trace).unwrap(),
                "{}",
                request.policy.name()
            );
            assert!(!got.cached);
        }
        // An ehc member alone is answered, not rejected.
        let lone = &requests[6];
        assert_eq!(
            execute_many(&[lone], &trace).unwrap(),
            vec![execute(lone, &trace).unwrap()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journaled_sweeps_group_by_trace_under_sweep_kernel() {
        let _guard = JOURNAL_TEST_LOCK.lock().unwrap();
        let small = CacheConfig::direct_mapped(64, 4).unwrap();
        let large = CacheConfig::direct_mapped(256, 4).unwrap();
        let addrs = thrash();
        let other: Vec<u32> = (0..60).map(|i| (i % 7) * 64).collect();
        // Two distinct traces interleaved: the sweep fast path must group by
        // trace identity and scatter results back in plan order.
        let points: Vec<(CacheConfig, &[u32])> = vec![
            (small, &addrs),
            (small, &other),
            (large, &addrs),
            (large, &other),
        ];
        dynex_engine::set_default_kernel(Kernel::Reference);
        let per_point = sweep_triples(&points);
        dynex_engine::set_default_kernel(Kernel::Sweep);
        let swept = sweep_triples(&points);
        dynex_engine::set_default_kernel(Kernel::Batch);
        assert_eq!(
            swept, per_point,
            "grouped sweep is bit-identical to per-point reference runs"
        );
        assert_eq!(sweep_triples(&points), per_point, "batch groups too");
    }

    #[test]
    fn sweep_triples_match_pointwise_runs() {
        let small = CacheConfig::direct_mapped(64, 4).unwrap();
        let large = CacheConfig::direct_mapped(256, 4).unwrap();
        let addrs = thrash();
        let points: Vec<(CacheConfig, &[u32])> = vec![(small, &addrs), (large, &addrs)];
        let parallel = sweep_triples(&points);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0], triple(small, &addrs));
        assert_eq!(parallel[1], triple(large, &addrs));
        let lastline = journaled_triples(&points, TripleKind::LastLine);
        assert_eq!(lastline[0], triple_lastline(small, &addrs));
        assert_eq!(lastline[1], triple_lastline(large, &addrs));
    }

    #[test]
    fn journaled_sweep_replays_bit_identically() {
        let _guard = JOURNAL_TEST_LOCK.lock().unwrap();
        let path =
            std::env::temp_dir().join(format!("dynex-api-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let small = CacheConfig::direct_mapped(64, 4).unwrap();
        let large = CacheConfig::direct_mapped(256, 4).unwrap();
        let addrs = thrash();
        let points: Vec<(CacheConfig, &[u32])> = vec![(small, &addrs), (large, &addrs)];
        let bare = sweep_triples(&points); // no journal installed
        dynex_engine::set_global_journal(Some(Journal::open(&path).unwrap()));
        let recorded = sweep_triples(&points); // cold journal: simulates + records
        let replayed_triples = sweep_triples(&points); // warm journal: pure replay
        let replayed = with_global_journal(|j| j.replayed()).unwrap();
        dynex_engine::set_global_journal(None);
        assert_eq!(recorded, bare);
        assert_eq!(replayed_triples, bare);
        assert!(replayed >= points.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn figure_sweep_journal_keys_are_pinned() {
        // Literal keys recorded by earlier builds: a change here orphans
        // every checkpoint written by `experiments --resume`.
        let config = CacheConfig::direct_mapped(1024, 16).unwrap();
        let addrs = thrash();
        let points: Vec<(CacheConfig, &[u32])> = vec![(config, &addrs)];
        assert_eq!(
            journal_keys(&points, TripleKind::Plain.journal_tag()),
            ["2504f3998353246d"]
        );
        assert_eq!(
            journal_keys(&points, TripleKind::LastLine.journal_tag()),
            ["ddd8e8f4640a9c16"]
        );
        // One digest per distinct slice: a repeated slice keys like itself.
        let word = CacheConfig::direct_mapped(64, 4).unwrap();
        let points: Vec<(CacheConfig, &[u32])> = vec![(config, &addrs), (word, &addrs)];
        assert_eq!(
            journal_keys(&points, TripleKind::Plain.journal_tag()),
            ["2504f3998353246d", "148262f7aad96ad1"]
        );
    }

    #[test]
    fn journaled_sweep_records_and_replays_every_point() {
        let _guard = JOURNAL_TEST_LOCK.lock().unwrap();
        let path =
            std::env::temp_dir().join(format!("dynex-api-journal-8-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addrs = thrash();
        let other: Vec<u32> = (0..60).map(|i| (i % 7) * 64).collect();
        let mut points: Vec<(CacheConfig, &[u32])> = Vec::new();
        for size in [64u32, 128, 256, 512] {
            let config = CacheConfig::direct_mapped(size, 16).unwrap();
            points.push((config, &addrs));
            points.push((config, &other));
        }
        for kind in [TripleKind::Plain, TripleKind::LastLine] {
            let bare = journaled_triples(&points, kind);
            let _ = std::fs::remove_file(&path);
            dynex_engine::set_global_journal(Some(Journal::open(&path).unwrap()));
            let recorded = journaled_triples(&points, kind);
            let entries = with_global_journal(|j| j.entries().count()).unwrap();
            let replayed = journaled_triples(&points, kind);
            let replays = with_global_journal(|j| j.replayed()).unwrap();
            dynex_engine::set_global_journal(None);
            assert_eq!(entries, 8, "{kind:?}: two traces x four configs");
            assert_eq!(replays, 8, "{kind:?}: the second call replays all 8");
            assert_eq!(recorded, bare, "{kind:?}");
            assert_eq!(replayed, bare, "{kind:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn triple_journal_encoding_round_trips() {
        let config = CacheConfig::direct_mapped(64, 4).unwrap();
        let t = triple(config, &thrash());
        let v = json::parse(&triple_to_journal(&t)).unwrap();
        assert_eq!(triple_from_journal(&v), Some(t));
        assert_eq!(triple_from_journal(&Json::Null), None);
        let truncated = json::parse(r#"{"dm":[1,0],"de":[1,0]}"#).unwrap();
        assert_eq!(triple_from_journal(&truncated), None);
        let impossible = json::parse(r#"{"dm":[1,2],"de":[1,0],"opt":[1,0]}"#).unwrap();
        assert_eq!(triple_from_journal(&impossible), None);
    }
}
