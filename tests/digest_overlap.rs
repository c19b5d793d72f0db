//! `api::execute` and `api::execute_many` hash a trace whose digest is
//! still unknown on a helper thread while the kernel runs. These tests pin
//! that the overlap changes nothing a caller can see: every response (key
//! included) equals the one computed over a trace whose digest was read
//! first, the trace carries the right digest afterwards, and under full
//! tracing the hash shows up as exactly one `digest` span under the
//! caller's span.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dynex_engine::{trace_digest, PolicyKind};
use dynex_experiments::api::{self, LoadedTrace, SimulationRequest};
use dynex_obs::json::{self, Json};
use dynex_obs::span;
use dynex_trace::io as trace_io;
use dynex_trace::{Access, Trace};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynex-overlap-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A trace of every kind over 8 KB, enough to miss in a 1 KB cache.
fn mixed(len: u32) -> Trace {
    (0..len)
        .map(|i| {
            let addr = i.wrapping_mul(2_654_435_761) % (8 * 1024);
            match i % 4 {
                0 | 1 => Access::fetch(addr),
                2 => Access::read(addr),
                _ => Access::write(addr),
            }
        })
        .collect()
}

fn request(policy: &str, kernel: &str, path: &Path, lenient: Option<u64>) -> SimulationRequest {
    let mut b = SimulationRequest::builder();
    b.policy(policy)
        .size("1K")
        .line(4)
        .kernel(kernel)
        .trace_path(path)
        .jobs(1);
    if let Some(max_skipped) = lenient {
        b.lenient(max_skipped);
    }
    b.build().unwrap()
}

/// Every policy under `kernel`.
fn every_policy(kernel: &str, path: &Path, lenient: Option<u64>) -> Vec<SimulationRequest> {
    PolicyKind::ALL
        .iter()
        .map(|policy| request(policy.name(), kernel, path, lenient))
        .collect()
}

/// The same trace with its digest read before any execute.
fn digested(trace: &LoadedTrace) -> LoadedTrace {
    let known = LoadedTrace::new(trace.addrs.clone(), trace.skipped);
    known.digest();
    known
}

fn write_dxt(path: &Path, trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace_io::write_binary(&mut bytes, trace).unwrap();
    std::fs::write(path, &bytes).unwrap();
    bytes
}

#[test]
fn execute_on_a_fresh_trace_answers_like_on_a_digested_one() {
    let dir = scratch("execute");
    let path = dir.join("mixed.dxt");
    write_dxt(&path, &mixed(5_000));
    for kernel in ["reference", "batch"] {
        for request in every_policy(kernel, &path, None) {
            let what = format!("{} under {kernel}", request.policy.name());
            let fresh = api::load(&request).unwrap();
            let known = digested(&fresh);
            let expected = api::execute(&request, &known).unwrap();
            let got = api::execute(&request, &fresh).unwrap();
            assert_eq!(got.to_json(), expected.to_json(), "{what}");
            assert_eq!(
                got.key,
                request.content_key(&fresh.addrs).unwrap(),
                "{what}"
            );
            assert_eq!(fresh.digest(), trace_digest(&fresh.addrs), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn execute_many_on_a_fresh_trace_answers_like_on_a_digested_one() {
    let dir = scratch("many");
    let path = dir.join("mixed.dxt");
    write_dxt(&path, &mixed(5_000));
    // One kernel class per batch, and both classes in one batch.
    let reference = every_policy("reference", &path, None);
    let batch = every_policy("batch", &path, None);
    let both: Vec<SimulationRequest> = reference.iter().chain(&batch).cloned().collect();
    for (what, requests) in [
        ("reference", &reference),
        ("batch", &batch),
        ("both", &both),
    ] {
        let refs: Vec<&SimulationRequest> = requests.iter().collect();
        let fresh = api::load(&requests[0]).unwrap();
        let known = digested(&fresh);
        let expected = api::execute_many(&refs, &known).unwrap();
        let got = api::execute_many(&refs, &fresh).unwrap();
        assert_eq!(got.len(), requests.len(), "{what}");
        for ((request, got), expected) in requests.iter().zip(&got).zip(&expected) {
            let policy = request.policy.name();
            assert_eq!(got.to_json(), expected.to_json(), "{what}: {policy}");
            let alone = api::execute(request, &known).unwrap();
            assert_eq!(got.to_json(), alone.to_json(), "{what}: {policy} alone");
        }
        assert_eq!(fresh.digest(), trace_digest(&fresh.addrs), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_lenient_dxt_keys_by_its_surviving_references() {
    let dir = scratch("lenient");
    let path = dir.join("damaged.dxt");
    let clean = mixed(5_000);
    let mut bytes = write_dxt(&path, &clean);
    for index in [3usize, 2_500] {
        bytes[12 + 4 * index..16 + 4 * index].copy_from_slice(&(3u32 << 30).to_le_bytes());
    }
    bytes.truncate(bytes.len() - 2);
    std::fs::write(&path, &bytes).unwrap();
    for kernel in ["reference", "batch"] {
        for request in every_policy(kernel, &path, Some(3)) {
            let what = format!("{} under {kernel}", request.policy.name());
            let fresh = api::load(&request).unwrap();
            assert_eq!(fresh.skipped, 3, "{what}");
            assert_eq!(fresh.addrs.len(), clean.len() - 3, "{what}");
            let got = api::execute(&request, &fresh).unwrap();
            assert_eq!(
                got.key,
                request.content_key(&fresh.addrs).unwrap(),
                "{what}"
            );
            let expected = api::execute(&request, &digested(&fresh)).unwrap();
            assert_eq!(got.to_json(), expected.to_json(), "{what}");
            assert_eq!(fresh.digest(), trace_digest(&fresh.addrs), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span writer the test can read back.
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

/// The `(span, parent, stage)` of every span line of trace `trace_id`.
fn spans_of(buf: &SharedBuf, trace_id: u64) -> Vec<(u64, u64, String)> {
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    text.lines()
        .map(|line| json::parse(line).unwrap())
        .filter(|v| v.get("trace").and_then(Json::as_str) == Some(&span::trace_hex(trace_id)))
        .map(|v| {
            let num = |key: &str| v.get(key).and_then(Json::as_u64).unwrap();
            let stage = v.get("stage").and_then(Json::as_str).unwrap().to_owned();
            (num("span"), num("parent"), stage)
        })
        .collect()
}

#[test]
fn a_fresh_trace_is_hashed_in_one_digest_span_under_the_caller() {
    let dir = scratch("spans");
    let path = dir.join("mixed.dxt");
    write_dxt(&path, &mixed(5_000));
    let request = request("opt", "batch", &path, None);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    span::install_jsonl_writer(Box::new(buf.clone()));

    let trace = api::load(&request).unwrap();
    let fresh_id = span::fresh_trace_id();
    let caller = {
        let root = span::root_span("caller", fresh_id);
        api::execute(&request, &trace).unwrap();
        root.ctx().expect("full tracing gives the span a context")
    };
    let again_id = span::fresh_trace_id();
    {
        let _root = span::root_span("caller", again_id);
        api::execute(&request, &trace).unwrap();
    }
    let _ = span::take_jsonl_writer();

    let fresh = spans_of(&buf, fresh_id);
    let digests: Vec<_> = fresh.iter().filter(|s| s.2 == "digest").collect();
    assert_eq!(digests.len(), 1, "one digest span: {fresh:?}");
    assert_eq!(digests[0].1, caller.span_id, "parented to the caller");
    assert!(fresh.iter().any(|s| s.2 == "caller"), "{fresh:?}");
    let again = spans_of(&buf, again_id);
    assert!(
        again.iter().all(|s| s.2 != "digest"),
        "an already-digested trace is not hashed again: {again:?}"
    );
    assert!(again.iter().any(|s| s.2 == "caller"), "{again:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
