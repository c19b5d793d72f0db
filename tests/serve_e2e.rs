//! End-to-end tests for `dynex-serve`: real sockets, real threads, an
//! in-process [`Server`] per test (ephemeral ports, so the suite is green
//! at any `--test-threads`).
//!
//! Determinism policy: nothing here sleeps and hopes. Tests that depend on
//! service phase (a job *running*, a job *waiting in the queue*) observe
//! the probe counters (`sims-started`, `queued`) before acting, and use
//! [`ServeConfig::inject_sim_delay`] to hold a phase open long enough to
//! act in it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dynex_experiments::api::{self, SimulationRequest, SimulationResponse};
use dynex_serve::{ServeConfig, Server};

/// Sends one `Connection: close` HTTP request, returns `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn post_simulate(addr: SocketAddr, body: &str) -> (u16, String) {
    http(addr, "POST", "/simulate", body)
}

/// A small profile-trace request; `size` distinguishes content keys.
fn request_body(size: &str) -> String {
    format!(
        r#"{{"org":"de","size":"{size}","line":4,"trace":{{"source":"profile","profile":"espresso"}},"refs":50000}}"#
    )
}

/// Polls a server counter until it reaches `at_least` (10s budget).
fn await_counter(server: &Server, name: &str, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.counter(name) < at_least {
        assert!(
            Instant::now() < deadline,
            "counter {name} stuck at {} (wanted >= {at_least})",
            server.counter(name)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("server starts")
}

#[test]
fn health_metrics_and_routing() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, r#"{"status":"ok"}"#));

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains(r#""sims-executed":0"#),
        "fresh metrics: {body}"
    );

    assert_eq!(http(addr, "GET", "/nope", "").0, 404);
    assert_eq!(http(addr, "GET", "/simulate", "").0, 405);
    assert_eq!(post_simulate(addr, "{not json").0, 400);
    assert_eq!(post_simulate(addr, r#"{"org":"alien"}"#).0, 400);
    // A request that validates but names no loadable stream is a 400 too.
    assert_eq!(post_simulate(addr, r#"{"org":"dm"}"#).0, 400);

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_identical_requests_run_one_simulation() {
    let server = start(ServeConfig {
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = request_body("8K");

    // Leader in a thread; wait until its simulation is *running* so the
    // followers demonstrably arrive mid-flight.
    let leader = {
        let body = body.clone();
        std::thread::spawn(move || post_simulate(addr, &body))
    };
    await_counter(&server, "sims-started", 1);
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || post_simulate(addr, &body))
        })
        .collect();

    let (status, leader_body) = leader.join().expect("leader thread");
    assert_eq!(status, 200);
    for follower in followers {
        let (status, follower_body) = follower.join().expect("follower thread");
        assert_eq!(status, 200);
        assert_eq!(follower_body, leader_body, "coalesced answers are shared");
    }
    assert_eq!(server.counter("sims-executed"), 1, "single-flight");
    assert_eq!(server.counter("coalesced-hits"), 3);
    assert_eq!(server.counter("cache-hits"), 0);

    server.shutdown();
    server.join();
}

#[test]
fn repeats_hit_the_result_cache() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let body = request_body("4K");

    let (status, first) = post_simulate(addr, &body);
    assert_eq!(status, 200);
    let first = SimulationResponse::from_json(&first).expect("response JSON");
    assert!(!first.cached);

    let (status, second) = post_simulate(addr, &body);
    assert_eq!(status, 200);
    let second = SimulationResponse::from_json(&second).expect("response JSON");
    assert!(second.cached, "second identical request is a cache hit");
    assert_eq!(first.stats, second.stats);
    assert_eq!(first.key, second.key);
    assert_eq!(server.counter("sims-executed"), 1);
    assert_eq!(server.counter("cache-hits"), 1);

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_rejects_with_429() {
    let server = start(ServeConfig {
        queue_capacity: 1,
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A occupies the simulator; B occupies the single queue slot; C must
    // then bounce. Distinct sizes keep the three keys distinct (identical
    // keys would coalesce instead of queueing).
    let a = std::thread::spawn(move || post_simulate(addr, &request_body("1K")));
    await_counter(&server, "sims-started", 1); // A popped: queue is empty
    let b = std::thread::spawn(move || post_simulate(addr, &request_body("2K")));
    await_counter(&server, "queued", 2); // B is waiting in the queue
    let (status, body) = post_simulate(addr, &request_body("4K"));
    assert_eq!(status, 429, "third distinct request bounces: {body}");
    assert!(body.contains("queue is full"));
    assert_eq!(server.counter("rejected-429"), 1);

    // Backpressure is per-moment, not a ban: A and B complete fine, and
    // once the queue drains the rejected request succeeds on retry.
    assert_eq!(a.join().expect("request A").0, 200);
    assert_eq!(b.join().expect("request B").0, 200);
    let (status, _) = post_simulate(addr, &request_body("4K"));
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn rejected_leader_wakes_concurrent_duplicates() {
    // When a leader's enqueue bounces off a full queue, duplicates that
    // joined its flight in the claim window must be answered with the
    // relayed 429 — never parked forever on a flight nobody will fly
    // (which would also wedge graceful drain below).
    let server = start(ServeConfig {
        queue_capacity: 1,
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // A occupies the simulator, B the single queue slot.
    let a = std::thread::spawn(move || post_simulate(addr, &request_body("1K")));
    await_counter(&server, "sims-started", 1);
    let b = std::thread::spawn(move || post_simulate(addr, &request_body("2K")));
    await_counter(&server, "queued", 2);

    // A storm of *identical* further requests: one leads and is rejected;
    // the rest either lead a fresh (also doomed) claim or join a doomed
    // flight and must be woken. Every thread has to come back.
    let stormers: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || post_simulate(addr, &request_body("4K"))))
        .collect();
    for stormer in stormers {
        let (status, body) = stormer.join().expect("storm request answered");
        // 429 while the queue is full; 200 is possible for a late storm
        // thread that enqueues after A completes and frees the slot.
        assert!(
            status == 429 || status == 200,
            "unexpected answer: {status} {body}"
        );
        if status == 429 {
            assert!(body.contains("queue is full"), "{body}");
        }
    }
    assert_eq!(a.join().expect("request A").0, 200);
    assert_eq!(b.join().expect("request B").0, 200);

    // No leaked handler threads: drain completes.
    server.shutdown();
    server.join();
}

#[test]
fn responses_are_byte_identical_for_every_worker_count() {
    let sizes = ["1K", "2K", "4K", "8K", "16K", "32K"];
    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for jobs in [1usize, 4] {
        let server = start(ServeConfig {
            jobs,
            // A real window so the concurrent posts actually share a plan.
            batch_window: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let addr = server.addr();
        let handles: Vec<_> = sizes
            .iter()
            .map(|size| {
                let body = request_body(size);
                std::thread::spawn(move || post_simulate(addr, &body))
            })
            .collect();
        let mut bodies = Vec::new();
        for handle in handles {
            let (status, body) = handle.join().expect("request thread");
            assert_eq!(status, 200);
            bodies.push(body);
        }
        bodies.sort();
        assert_eq!(server.counter("sims-executed"), sizes.len() as u64);
        transcripts.push(bodies);
        server.shutdown();
        server.join();
    }
    assert_eq!(
        transcripts[0], transcripts[1],
        "jobs=1 and jobs=4 serve identical bytes"
    );
}

#[test]
fn same_trace_batch_coalesces_into_one_sweep_pass() {
    // Hold the dispatcher busy on a decoy job while the real batch queues
    // up, so all of it lands in one dispatch (determinism policy: observe
    // counters, don't sleep and hope).
    let server = start(ServeConfig {
        jobs: 4,
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(1500),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let decoy = request_body("16K");
    let decoy_handle = std::thread::spawn(move || post_simulate(addr, &decoy));
    await_counter(&server, "sims-started", 1);

    // Six same-trace jobs across all three sweepable organizations, plus
    // one reference-kernel rider that must stay un-fused.
    let mut posts: Vec<String> = [
        ("dm", "1K"),
        ("de", "1K"),
        ("de", "4K"),
        ("opt", "2K"),
        ("de", "8K"),
        ("dm", "4K"),
    ]
    .iter()
    .map(|(org, size)| {
        format!(
            r#"{{"org":"{org}","size":"{size}","line":4,"trace":{{"source":"profile","profile":"espresso"}},"refs":50000}}"#
        )
    })
    .collect();
    posts.push(
        r#"{"org":"de","size":"2K","line":4,"kernel":"reference","trace":{"source":"profile","profile":"espresso"},"refs":50000}"#
            .to_owned(),
    );

    let handles: Vec<_> = posts
        .iter()
        .map(|body| {
            let body = body.clone();
            std::thread::spawn(move || post_simulate(addr, &body))
        })
        .collect();
    // All seven enqueued (the decoy's 1.5s budget dwarfs seven loopback
    // posts), so the next dispatch folds them into one batch.
    await_counter(&server, "queued", 8);

    let mut served = Vec::new();
    for handle in handles {
        let (status, body) = handle.join().expect("request thread");
        assert_eq!(status, 200, "{body}");
        served.push(body);
    }
    let (decoy_status, _) = decoy_handle.join().expect("decoy thread");
    assert_eq!(decoy_status, 200);

    // Bit-identity: every served body equals the offline per-request API
    // result, coalesced or not.
    for (body, request_json) in served.iter().zip(&posts) {
        let request = SimulationRequest::from_json(request_json).expect("request parses");
        let trace = dynex_experiments::api::load(&request).expect("trace loads");
        let expected = dynex_experiments::api::execute(&request, &trace).expect("offline run");
        assert_eq!(body, &expected.to_json(), "{request_json}");
    }
    assert_eq!(
        server.counter("fused-jobs"),
        6,
        "the six same-trace sweepable jobs rode one traversal"
    );
    server.shutdown();
    server.join();
}

#[test]
fn per_request_deadline_times_out_with_504() {
    let server = start(ServeConfig {
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(800),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"org":"dm","size":"1K","line":4,"deadline_ms":40,"trace":{"source":"profile","profile":"espresso"},"refs":50000}"#;
    let started = Instant::now();
    let (status, response) = post_simulate(addr, body);
    assert_eq!(status, 504, "deadline overrun: {response}");
    assert!(response.contains("deadline"));
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "the 504 must not wait for the simulation to finish"
    );
    server.shutdown();
    server.join();
}

#[test]
fn offline_simcache_run_warm_starts_the_service() {
    let dir = std::env::temp_dir().join(format!("dynex-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("warm.txt");
    let journal_path = dir.join("warm.jsonl");
    let _ = std::fs::remove_file(&journal_path);

    // A tiny thrash trace in the text format.
    let mut text = String::new();
    for i in 0..400u32 {
        let addr = if i % 2 == 0 { 0 } else { 2048 };
        text.push_str(&format!("F 0x{addr:x}\n"));
    }
    std::fs::write(&trace_path, text).expect("write trace");

    // Offline run: simcache simulates and checkpoints into the journal.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_simcache"))
        .args([
            trace_path.to_str().unwrap(),
            "--size",
            "1K",
            "--line",
            "4",
            "--org",
            "de",
            "--kernel",
            "batch",
            "--resume",
            journal_path.to_str().unwrap(),
        ])
        .output()
        .expect("run simcache");
    assert!(output.status.success(), "{output:?}");
    let offline_stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");

    // Boot the service from that journal: the result is cached before the
    // first request ever arrives, and the response's text rendering is
    // byte-identical to what the offline CLI printed.
    let server = start(ServeConfig {
        warm_journal: Some(journal_path.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(server.counter("warm-start-entries"), 1);
    let body = format!(
        r#"{{"org":"de","size":"1K","line":4,"kernel":"batch","trace":{{"source":"path","path":"{}"}}}}"#,
        trace_path.display()
    );
    let (status, response) = post_simulate(server.addr(), &body);
    assert_eq!(status, 200);
    let response = SimulationResponse::from_json(&response).expect("response JSON");
    assert!(response.cached, "served from the warm-started cache");
    assert_eq!(server.counter("sims-executed"), 0, "no re-simulation");
    assert_eq!(response.render_text(), offline_stdout);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_dedups_repeated_journal_keys() {
    // Regression test for the dedup-on-replay guard: an append-only journal
    // can legitimately hold the same key several times (a result re-recorded
    // across runs, or two pre-fan-out processes appending to one file). The
    // warm boot must load each key exactly once.
    let dir = std::env::temp_dir().join(format!("dynex-serve-dup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal_path = dir.join("dup.jsonl");
    let _ = std::fs::remove_file(&journal_path);

    // First boot records one real result into the journal.
    let server = start(ServeConfig {
        warm_journal: Some(journal_path.clone()),
        ..ServeConfig::default()
    });
    let (status, _) = post_simulate(server.addr(), &request_body("2K"));
    assert_eq!(status, 200);
    server.shutdown();
    server.join();

    // Duplicate the record on disk, twice, the way repeated re-records
    // would: three lines, one key.
    let line = std::fs::read_to_string(&journal_path)
        .expect("journal")
        .lines()
        .next()
        .expect("one record")
        .to_owned();
    let mut contents = format!("{line}\n");
    contents.push_str(&format!("{line}\n{line}\n"));
    std::fs::write(&journal_path, contents).expect("rewrite journal");

    // Reboot: one warm entry, not three, and it still serves from cache.
    let server = start(ServeConfig {
        warm_journal: Some(journal_path.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(server.counter("warm-start-entries"), 1);
    let (status, response) = post_simulate(server.addr(), &request_body("2K"));
    assert_eq!(status, 200);
    let response = SimulationResponse::from_json(&response).expect("response JSON");
    assert!(response.cached, "served from the deduped warm start");
    assert_eq!(server.counter("sims-executed"), 0);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let server = start(ServeConfig {
        batch_window: Duration::ZERO,
        inject_sim_delay: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let in_flight = {
        let body = request_body("2K");
        std::thread::spawn(move || post_simulate(addr, &body))
    };
    await_counter(&server, "sims-started", 1);

    let (status, body) = http(addr, "POST", "/shutdown", "");
    assert_eq!((status, body.as_str()), (200, r#"{"status":"draining"}"#));

    // Drain completes: join returns, and the in-flight request was served,
    // not dropped.
    server.join();
    let (status, _) = in_flight.join().expect("in-flight request");
    assert_eq!(status, 200);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener is gone after drain"
    );
}

#[test]
fn trace_out_reconstructs_the_request_span_tree() {
    use std::sync::{Arc, Mutex};

    /// Captures the JSONL span stream in memory (the writer installed into
    /// the tracing layer is a clone sharing this buffer).
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

    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    dynex_obs::span::install_jsonl_writer(Box::new(buf.clone()));

    let server = start(ServeConfig {
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Raw round-trip: the X-Dynex-Trace header is the key into the stream.
    let body = request_body("64K");
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /simulate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    let trace_hex = raw
        .lines()
        .find_map(|line| line.strip_prefix("X-Dynex-Trace: "))
        .expect("response carries the trace header")
        .trim()
        .to_owned();
    assert_eq!(trace_hex.len(), 16, "16 hex digits: {trace_hex}");

    server.shutdown();
    server.join();
    dynex_obs::span::take_jsonl_writer();

    // Reconstruct this request's tree from the stream. Other tests in this
    // process may interleave their own spans; the trace id isolates ours.
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("UTF-8 stream");
    let needle = format!(r#""trace":"{trace_hex}""#);
    let mut spans: Vec<(u64, u64, String)> = Vec::new(); // (id, parent, stage) in close order
    for line in text.lines().filter(|l| l.contains(&needle)) {
        let parsed = dynex_obs::json::parse(line).expect("span line parses");
        let id = parsed
            .get("span")
            .and_then(|v| v.as_u64())
            .expect("span id");
        let parent = parsed
            .get("parent")
            .and_then(|v| v.as_u64())
            .expect("parent id");
        let stage = parsed
            .get("stage")
            .and_then(|v| v.as_str())
            .expect("stage")
            .to_owned();
        spans.push((id, parent, stage));
    }

    // One root, and it is the request span.
    let roots: Vec<_> = spans.iter().filter(|(_, parent, _)| *parent == 0).collect();
    assert_eq!(roots.len(), 1, "one root span: {spans:?}");
    assert_eq!(roots[0].2, "request");

    // The tree reaches from the HTTP accept all the way into the kernel.
    for stage in [
        "accept",
        "parse",
        "cache-lookup",
        "queue-wait",
        "simulate",
        "kernel.decode",
        "kernel.simulate",
        "respond",
    ] {
        assert!(
            spans.iter().any(|(_, _, s)| s == stage),
            "stage {stage} missing from the trace: {spans:?}"
        );
    }

    // Ids are unique; every parent exists and closes after its children
    // (so one forward pass over the stream reconstructs the tree).
    let mut seen = std::collections::HashSet::new();
    for (id, _, _) in &spans {
        assert!(seen.insert(*id), "duplicate span id {id}");
    }
    for (index, (_, parent, stage)) in spans.iter().enumerate() {
        if *parent == 0 {
            continue;
        }
        let parent_index = spans
            .iter()
            .position(|(id, _, _)| id == parent)
            .unwrap_or_else(|| panic!("span {stage} has unknown parent {parent}: {spans:?}"));
        assert!(
            parent_index > index,
            "parent of {stage} closed before its child: {spans:?}"
        );
    }
}

#[test]
fn request_round_trips_through_the_wire_format() {
    // The service accepts exactly what `SimulationRequest::to_json` emits —
    // an API client can parrot a canonicalized request back.
    let mut builder = SimulationRequest::builder();
    builder
        .policy("de")
        .size("8K")
        .line(4)
        .profile("espresso")
        .refs(50_000);
    let request = builder.build().expect("valid request");

    let server = start(ServeConfig::default());
    let (status, body) = post_simulate(server.addr(), &request.to_json());
    assert_eq!(status, 200);
    let response = SimulationResponse::from_json(&body).expect("response JSON");
    assert_eq!(response.stats.accesses(), 50_000);
    server.shutdown();
    server.join();
}

#[test]
fn policy_zoo_requests_flow_through_the_service() {
    // PR 10: the two zoo policies reach the kernel through the same
    // SimulationRequest -> serve -> execute path as the paper's trio, with
    // the new `policy` wire spelling and the legacy `org` one.
    let server = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = post_simulate(
        addr,
        r#"{"policy":"ehc","size":"1K","line":4,"trace":{"source":"profile","profile":"espresso"},"refs":50000}"#,
    );
    assert_eq!(status, 200, "{body}");
    let ehc = SimulationResponse::from_json(&body).expect("response JSON");
    assert_eq!(ehc.label, "expected-hit-count direct-mapped");
    assert_eq!(ehc.stats.accesses(), 50_000);
    assert_eq!(ehc.stats.probes(), 50_000, "zoo policies account traffic");

    let (status, body) = post_simulate(
        addr,
        r#"{"org":"bwcost","size":"1K","line":4,"trace":{"source":"profile","profile":"espresso"},"refs":50000}"#,
    );
    assert_eq!(status, 200, "{body}");
    let bw = SimulationResponse::from_json(&body).expect("response JSON");
    assert_eq!(bw.label, "bandwidth-aware direct-mapped");
    assert!(bw.stats.misses() <= ehc.stats.misses() || bw.stats.misses() > 0);

    // ehc on the sweep kernel answers exactly as on the reference kernel.
    // (A fresh geometry: content keys are kernel-independent, so reusing
    // the 1K point above would legitimately answer from the result cache.)
    let (status, body) = post_simulate(
        addr,
        r#"{"policy":"ehc","kernel":"sweep","size":"2K","line":4,"trace":{"source":"profile","profile":"espresso"},"refs":50000}"#,
    );
    assert_eq!(status, 200, "{body}");
    let swept = SimulationResponse::from_json(&body).expect("response JSON");
    assert!(!swept.cached, "the first 2K request simulates");
    let reference = api::run(
        &SimulationRequest::from_json(
            r#"{"policy":"ehc","kernel":"reference","size":"2K","line":4,"trace":{"source":"profile","profile":"espresso"},"refs":50000}"#,
        )
        .expect("valid request"),
    )
    .expect("the reference kernel runs ehc");
    assert_eq!(
        body,
        reference.to_json(),
        "sweep body is the reference body"
    );

    server.shutdown();
    server.join();
}
