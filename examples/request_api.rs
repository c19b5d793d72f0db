//! The request API end to end: build one typed [`SimulationRequest`], run
//! it three ways — in process, through a resume journal, and against an
//! in-process `dynex-serve` instance — and show that all three produce the
//! same statistics under the same content key.
//!
//! The request is the unit of reproducibility: its content key hashes
//! everything that can change the result (organization, geometry, kind
//! filter, and the trace bytes via their digest) and excludes everything
//! that cannot (kernel, worker count, deadlines). Journals, result caches,
//! and the service all speak this key.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p dynex-experiments --example request_api
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;

use dynex_experiments::api::{self, SimulationRequest, SimulationResponse};
use dynex_serve::{ServeConfig, Server};

fn main() {
    // One typed request: dynamic exclusion, the paper's headline 32KB
    // geometry, over a synthetic `espresso` profile trace.
    let mut builder = SimulationRequest::builder();
    builder
        .policy("de")
        .size("32K")
        .line(4)
        .profile("espresso")
        .refs(500_000);
    let request = builder.build().expect("a well-formed request");
    println!("request: {}\n", request.to_json());

    // 1. Run it in process.
    let direct = api::run(&request).expect("simulation runs");
    print!("in-process: {}", direct.render_text());
    println!("  key {} (cached: {})\n", direct.key, direct.cached);

    // 2. Run it through the service. The server binds an ephemeral port;
    //    a real deployment would use `dynex-serve --port 8080` and curl.
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let served = post_simulate(&server, &request);
    print!("served:     {}", served.render_text());
    println!("  key {} (cached: {})", served.key, served.cached);

    // 3. Repeat the request: the service answers from its result cache.
    let cached = post_simulate(&server, &request);
    println!(
        "repeat:     cached={} ({} simulation(s) executed for {} requests)\n",
        cached.cached,
        server.counter("sims-executed"),
        server.counter("requests-total"),
    );
    server.shutdown();
    server.join();

    assert_eq!(direct.stats, served.stats);
    assert_eq!(direct.stats, cached.stats);
    assert_eq!(direct.key, served.key);
    println!("all three answers carry identical statistics and key");
}

/// POSTs the request to the server's `/simulate` and parses the response.
fn post_simulate(server: &Server, request: &SimulationRequest) -> SimulationResponse {
    let body = request.to_json();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /simulate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let json = raw.split("\r\n\r\n").nth(1).expect("a response body");
    SimulationResponse::from_json(json).expect("a simulation response")
}
