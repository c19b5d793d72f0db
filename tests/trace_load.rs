//! Differential tests of `api::load` against the load path it replaced:
//! read the whole file, parse it with `read_binary_with` / `read_text_with`,
//! then decode through `api::filter_trace`. For every source (`.dxt`
//! strict, `.dxt` lenient over corrupt words and over a truncated tail,
//! text, profile) under every kind filter, the streamed load must give the
//! same addresses, skip count and error text, and the digest it carries
//! must be the `trace_digest` of its addresses. (`read_binary_with` itself
//! is checked against the word-at-a-time reader in `dynex-trace`'s
//! `binary_stream` tests.)

use std::path::{Path, PathBuf};

use dynex_cache::KindFilter;
use dynex_engine::trace_digest;
use dynex_experiments::api::{self, ApiError, LoadedTrace, SimulationRequest};
use dynex_obs::NoopProbe;
use dynex_trace::io::{self as trace_io, READ_CHUNK_WORDS};
use dynex_trace::{Access, ReadPolicy, Trace};

const KINDS: [&str; 3] = ["all", "instr", "data"];
const RESERVED_KIND: u32 = 3u32 << 30;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynex-load-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A trace of `len` references of every kind, spread over 256 KB.
fn mixed(len: usize) -> Trace {
    (0..len as u32)
        .map(|i| {
            let addr = i.wrapping_mul(2_654_435_761) % (256 * 1024);
            match i % 5 {
                0..=2 => Access::fetch(addr),
                3 => Access::read(addr),
                _ => Access::write(addr),
            }
        })
        .collect()
}

fn dxt_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace_io::write_binary(&mut bytes, trace).unwrap();
    bytes
}

fn corrupt(bytes: &mut [u8], index: usize) {
    bytes[12 + 4 * index..16 + 4 * index].copy_from_slice(&RESERVED_KIND.to_le_bytes());
}

fn request(path: &Path, kinds: &str, max_skipped: Option<u64>) -> SimulationRequest {
    let mut b = SimulationRequest::builder();
    b.policy("de")
        .size("1K")
        .line(4)
        .kinds(kinds)
        .trace_path(path)
        .jobs(1);
    if let Some(max_skipped) = max_skipped {
        b.lenient(max_skipped);
    }
    b.build().unwrap()
}

/// The load path `api::load` replaced: the whole file in memory, parsed
/// into a `Trace`, then filtered and decoded.
fn old_load(request: &SimulationRequest) -> Result<LoadedTrace, String> {
    let policy = match request.max_skipped {
        Some(max_skipped) => ReadPolicy::Lenient { max_skipped },
        None => ReadPolicy::Strict,
    };
    let api::TraceSource::Path(path) = &request.trace else {
        panic!("file sources only");
    };
    let bytes = std::fs::read(path)
        .map_err(|e| ApiError::Trace(format!("cannot read {}: {e}", path.display())))
        .map_err(|e| e.to_string())?;
    let result = if bytes.starts_with(&trace_io::BINARY_MAGIC) {
        trace_io::read_binary_with(&bytes[..], policy, NoopProbe)
    } else {
        trace_io::read_text_with(&bytes[..], policy, NoopProbe)
    };
    let (trace, report) = result
        .map_err(|e| ApiError::Trace(format!("{}: {e}", path.display())))
        .map_err(|e| e.to_string())?;
    Ok(api::filter_trace(&trace, request.kinds, report.skipped))
}

/// Asserts `api::load` agrees with the old path on `request`, and returns
/// the loaded trace (or the error text).
fn agree(request: &SimulationRequest, what: &str) -> Result<LoadedTrace, String> {
    let new = api::load(request).map_err(|e| e.to_string());
    let old = old_load(request);
    match (&new, &old) {
        (Ok(new), Ok(old)) => {
            assert!(new.addrs == old.addrs, "{what}: addresses differ");
            assert_eq!(new.skipped, old.skipped, "{what}: skip count");
            assert_eq!(new.digest(), trace_digest(&new.addrs), "{what}: digest");
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}: error text"),
        _ => panic!(
            "{what}: streamed load {} but the old path {}",
            outcome(&new),
            outcome(&old)
        ),
    }
    new
}

fn outcome(result: &Result<LoadedTrace, String>) -> String {
    match result {
        Ok(trace) => format!("loaded {} references", trace.addrs.len()),
        Err(e) => format!("failed: {e}"),
    }
}

#[test]
fn every_file_source_loads_like_the_old_path_under_every_kind_filter() {
    let dir = scratch("sources");
    let len = 2 * READ_CHUNK_WORDS + 17;
    let trace = mixed(len);
    let clean = dxt_bytes(&trace);
    let mut files: Vec<(&str, Vec<u8>, Option<u64>, bool)> = Vec::new();
    files.push(("strict.dxt", clean.clone(), None, true));
    let mut words = clean.clone();
    for index in [0, READ_CHUNK_WORDS - 1, READ_CHUNK_WORDS, len - 1] {
        corrupt(&mut words, index);
    }
    files.push(("corrupt-words.dxt", words.clone(), Some(4), true));
    // Over budget: fails leniently with the same budget error.
    files.push(("corrupt-over-budget.dxt", words.clone(), Some(3), false));
    // And strictly with the first corrupt index.
    files.push(("corrupt-strict.dxt", words, None, false));
    let mut tail = clean.clone();
    tail.truncate(clean.len() - 4 * 1000 - 3);
    files.push(("truncated.dxt", tail.clone(), Some(1001), true));
    files.push(("truncated-strict.dxt", tail, None, false));
    let mut text = Vec::new();
    trace_io::write_text(&mut text, &mixed(3000)).unwrap();
    text.extend_from_slice(b"# comment\n\nnot a line\n");
    files.push(("trace.txt", text.clone(), Some(1), true));
    files.push(("trace-strict.txt", text, None, false));
    // Short files: an empty one and a partial magic parse as text; a
    // whole magic with a partial header is an IO error.
    files.push(("empty", Vec::new(), None, true));
    files.push(("partial-magic", b"DXT".to_vec(), None, false));
    files.push(("partial-header", b"DXT1\x05\0\0".to_vec(), Some(9), false));

    for (name, bytes, max_skipped, loads) in &files {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        for kinds in KINDS {
            let what = format!("{name} --kinds {kinds}");
            let loaded = agree(&request(&path, kinds, *max_skipped), &what);
            assert_eq!(loaded.is_ok(), *loads, "{what}: {}", outcome(&loaded));
        }
    }
    // A missing file and a directory fail to read the same way.
    for path in [dir.join("missing.dxt"), dir.clone()] {
        let loaded = agree(&request(&path, "all", None), "unreadable path");
        assert!(loaded.unwrap_err().starts_with("cannot read "));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chunk_boundary_sizes_load_like_the_old_path() {
    let dir = scratch("sizes");
    for len in [
        0,
        1,
        READ_CHUNK_WORDS - 1,
        READ_CHUNK_WORDS,
        READ_CHUNK_WORDS + 1,
    ] {
        let bytes = dxt_bytes(&mixed(len));
        let path = dir.join(format!("{len}.dxt"));
        // Whole, and cut inside the last word.
        for cut in [bytes.len(), bytes.len().saturating_sub(1).max(12)] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            for kinds in KINDS {
                for max_skipped in [None, Some(1)] {
                    let what = format!("{len} words cut at {cut} --kinds {kinds} {max_skipped:?}");
                    let _ = agree(&request(&path, kinds, max_skipped), &what);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_sources_load_like_filter_trace() {
    for kinds in KINDS {
        let mut b = SimulationRequest::builder();
        b.policy("dm")
            .kinds(kinds)
            .profile("gcc")
            .refs(5_000)
            .jobs(1);
        let request = b.build().unwrap();
        let loaded = api::load(&request).unwrap();
        let profile = dynex_workload::spec::profile("gcc").unwrap();
        let filter = api::parse_kinds(kinds).unwrap();
        let expected = api::filter_trace(&profile.trace(5_000), filter, 0);
        assert_eq!(loaded.addrs, expected.addrs, "{kinds}");
        assert_eq!(loaded.skipped, 0);
        assert_eq!(loaded.digest(), trace_digest(&loaded.addrs), "{kinds}");
    }
}

#[test]
fn hostile_header_count_reserves_nothing() {
    let dir = scratch("hostile");
    // 12 bytes declaring 2^40 references, holding none.
    let mut bytes = trace_io::BINARY_MAGIC.to_vec();
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    let path = dir.join("hostile.dxt");
    std::fs::write(&path, &bytes).unwrap();
    let err = api::load(&request(&path, "all", None)).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "{}: truncated trace: header declared 1099511627776 references, found 0",
            path.display()
        )
    );
    for kinds in KINDS {
        let loaded = agree(&request(&path, kinds, Some(u64::MAX)), kinds).unwrap();
        assert_eq!(loaded.skipped, 1 << 40, "one truncation skip for the tail");
        assert!(loaded.addrs.is_empty());
        assert_eq!(
            loaded.addrs.capacity(),
            0,
            "sized by the file, not the header"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_execute_path_keys_with_the_carried_digest() {
    let dir = scratch("keys");
    let path = dir.join("mixed.dxt");
    std::fs::write(&path, dxt_bytes(&mixed(READ_CHUNK_WORDS + 5))).unwrap();
    for kinds in KINDS {
        let requests: Vec<SimulationRequest> = ["dm", "de", "opt", "ehc"]
            .iter()
            .map(|policy| {
                let mut b = SimulationRequest::builder();
                b.policy(policy)
                    .size("1K")
                    .kinds(kinds)
                    .trace_path(&path)
                    .jobs(1);
                b.build().unwrap()
            })
            .collect();
        let trace = api::load(&requests[0]).unwrap();
        let refs: Vec<&SimulationRequest> = requests.iter().collect();
        let batch = api::execute_many(&refs, &trace).unwrap();
        for (request, fused) in requests.iter().zip(&batch) {
            let expected = request.content_key(&trace.addrs).unwrap();
            assert_eq!(fused.key, expected, "{kinds}: execute_many");
            assert_eq!(api::execute(request, &trace).unwrap().key, expected);
            assert_eq!(
                request.content_key_from_digest(trace.digest()).unwrap(),
                expected
            );
        }
        // The same addresses built any other way carry the same digest.
        let rebuilt = LoadedTrace::new(trace.addrs.clone(), trace.skipped);
        assert_eq!(rebuilt.digest(), trace.digest());
        let filtered = api::filter_trace(
            &trace_io::read_binary(&std::fs::read(&path).unwrap()[..]).unwrap(),
            api::parse_kinds(kinds).unwrap_or(KindFilter::All),
            0,
        );
        assert_eq!(filtered.digest(), trace.digest(), "{kinds}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
