//! The server's and the router's connection handlers are a bounded pool of
//! reused threads: more stalled connections than the pool and its accept
//! queue hold are refused with a structured `503` (counted in
//! `rejected-connections`), the process's thread count stays at the pool
//! cap plus the fixed service threads, a healthy client gets an answer
//! rather than a hang, and once warm a request runs on threads that
//! already exist.
//!
//! This file is its own test binary with a single test, so the process's
//! thread count (`/proc/self/status`) is this test's alone.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dynex_serve::{Router, RouterConfig, ServeConfig, Server};

/// Connections that may wait for a handler: one dispatcher batch.
const BACKLOG: usize = 64;

/// Connections refused on purpose beyond the pool and its accept queue.
const EXCESS: usize = 4;

/// A small profile request; `size` distinguishes content keys.
fn request_body(size: &str) -> String {
    format!(
        r#"{{"org":"de","size":"{size}","line":4,"trace":{{"source":"profile","profile":"espresso"}},"refs":20000}}"#
    )
}

/// Threads of this process, where the OS reports them.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
}

/// Ids of this process's threads, where the OS lists them.
fn thread_ids() -> Option<BTreeSet<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| Some(task.ok()?.file_name().to_string_lossy().into_owned()))
            .collect(),
    )
}

/// One `POST /simulate` written in a single call, returning the raw
/// response. A refused connection may be reset after its `503` arrives, so
/// a read error keeps whatever was received.
fn post(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let request = format!(
        "POST /simulate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8(raw).expect("UTF-8 response")
}

/// Polls `read` until it reaches `at_least` (10s budget).
fn await_value(name: &str, at_least: u64, read: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while read() < at_least {
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {} (wanted >= {at_least})",
            read()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Opens `count` connections that never send a byte.
fn stall(addr: SocketAddr, count: usize) -> Vec<TcpStream> {
    (0..count)
        .map(|_| TcpStream::connect(addr).expect("stalled connect"))
        .collect()
}

/// Asserts a refused connection was answered with the capacity `503`.
fn assert_capacity_refusal(raw: &str) {
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw:?}");
    assert!(
        raw.contains(r#"{"error":"connection limit reached"#),
        "{raw}"
    );
}

/// Posts a fresh simulation to `addr` and, while it runs (held open by the
/// injected delay; `started` reads the simulating server's `sims-started`),
/// asserts the process runs on exactly the threads it had before.
fn assert_served_without_spawning(addr: SocketAddr, body: String, started: impl Fn() -> u64) {
    let go = Arc::new(Barrier::new(2));
    let client = {
        let go = Arc::clone(&go);
        std::thread::spawn(move || {
            go.wait();
            post(addr, &body)
        })
    };
    let before = thread_ids();
    let sims = started();
    go.wait();
    await_value("sims-started", sims + 1, &started);
    assert_eq!(thread_ids(), before, "a warm request spawned a thread");
    let raw = client.join().expect("client thread");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
}

/// A server with a small pool: `queue_capacity` 1 and one simulation
/// worker give a cap of 1 + 1 + 1 handlers. Simulations take 200 ms, long
/// enough to look at the process while one runs.
fn small_server() -> Server {
    Server::start(ServeConfig {
        queue_capacity: 1,
        jobs: 1,
        inject_sim_delay: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .expect("server starts")
}

#[test]
fn stalled_connections_cannot_grow_the_handler_pools() {
    // --- The server. Fixed threads: acceptor, dispatcher, one sim worker.
    let base = os_threads();
    let server = small_server();
    let addr = server.addr();
    let cap = server.counter("handler-cap") as usize;
    assert_eq!(cap, 3);
    assert_eq!(server.counter("rejected-connections"), 0);

    let mut stalled = stall(addr, cap + BACKLOG + EXCESS);
    await_value("rejected-connections", EXCESS as u64, || {
        server.counter("rejected-connections")
    });
    assert_eq!(server.counter("handler-threads"), cap as u64);
    if let (Some(base), Some(now)) = (base, os_threads()) {
        assert!(now <= base + 3 + cap, "{now} threads (base {base})");
    }
    // The refused stalled connections got the structured 503.
    let mut refused = String::new();
    let _ = stalled
        .pop()
        .expect("a refused connection")
        .read_to_string(&mut refused);
    assert_capacity_refusal(&refused);

    // A healthy client is refused loudly, not parked.
    assert_capacity_refusal(&post(addr, &request_body("1K")));
    assert_eq!(server.counter("rejected-connections"), EXCESS as u64 + 1);

    // The stalled clients hang up; their handlers serve the next client.
    drop(stalled);
    let warm = post(addr, &request_body("1K"));
    assert!(warm.starts_with("HTTP/1.1 200"), "{warm}");

    // Warm: a repeat is a hit, and a fresh simulation runs on the pool's
    // handler and the dispatcher's standing worker.
    let hit = post(addr, &request_body("1K"));
    assert!(hit.contains(r#""cached":true"#), "{hit}");
    assert_served_without_spawning(addr, request_body("2K"), || server.counter("sims-started"));
    assert_eq!(server.counter("handler-threads"), cap as u64);
    server.shutdown();
    server.join();

    // --- The router over one such shard. Its pool is the shard's size.
    let base = os_threads();
    let shard = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![shard.addr()],
        // Only the boot probe: a later one could need a second shard
        // handler in the middle of the no-spawn check below.
        health_interval: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("router boots");
    let addr = router.addr();

    let stalled = stall(addr, cap + BACKLOG + EXCESS);
    await_value("router-rejected-connections", EXCESS as u64, || {
        router.counter("router-rejected-connections")
    });
    assert_eq!(router.counter("router-handler-threads"), cap as u64);
    if let (Some(base), Some(now)) = (base, os_threads()) {
        // Shard: acceptor, dispatcher, sim worker and its pool; router:
        // acceptor, health probe and its pool.
        assert!(
            now <= base + (3 + cap) + (2 + cap),
            "{now} threads (base {base})"
        );
    }
    assert_capacity_refusal(&post(addr, &request_body("8K")));
    assert_eq!(
        router.counter("router-rejected-connections"),
        EXCESS as u64 + 1
    );

    drop(stalled);
    let relayed = post(addr, &request_body("8K"));
    assert!(relayed.starts_with("HTTP/1.1 200"), "{relayed}");
    assert_served_without_spawning(addr, request_body("16K"), || shard.counter("sims-started"));
    assert_eq!(router.counter("router-handler-threads"), cap as u64);

    router.shutdown();
    router.join();
    shard.shutdown();
    shard.join();
}
