//! The `serve` workload: an in-process `dynex-serve` server (journal on,
//! one worker per core) driven open-loop at a fixed rate by at most one
//! sender thread per core, over a seeded duplicate-heavy request mix. The
//! only workload through HTTP, the result cache, the queue, dispatcher
//! coalescing and journal append.
//!
//! Each request is timed from the moment it was due, so a stall also
//! charges the requests queued behind it; how late the senders ran is
//! reported separately. Hits (`"cached":true`) and fresh simulations are
//! split by the response body.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use dynex_cache::CacheStats;
use dynex_engine::{job_key, Journal};
use dynex_experiments::api::mix::{MixConfig, RequestMix};
use dynex_experiments::api::{self, SimulationRequest, SimulationResponse, TraceSource};
use dynex_serve::{client, ServeConfig, Server};

use crate::calib::Calibration;
use crate::checks::served_matches;
use crate::report::{
    median, peak_rss_mib, quantile, release_free_memory, reset_peak_rss, timed, Report,
};
use crate::Phase;

/// Open-loop arrival rate, requests per second (below saturation on two
/// cores).
const RATE: f64 = 80.0;

/// Reference budget of every requested profile trace.
const REFS: usize = 20_000;

/// Probability that a request repeats an earlier configuration.
const DUPLICATE_RATIO: f64 = 0.8;

/// Records in the journal the server replays at boot.
const JOURNAL_RECORDS: usize = 20_000;

/// Server boots timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Journal replays timed per run.
const REPLAY_REPS: usize = 3;

/// Socket timeout of one request.
const TIMEOUT: Duration = Duration::from_secs(20);

/// The stages whose durations make up a request's server-side time.
pub const SERVER_STAGES: &[&str] = &["request", "accept"];

/// The request mix: the five policies over six sizes, the default two line
/// sizes and the ten profiles, seeded by the run's seed. Its 600 distinct
/// configurations outlast a 30-second run's fresh requests (about 480), so
/// misses continue to the end of the load.
fn mix(seed: u64) -> RequestMix {
    RequestMix::new(MixConfig {
        seed,
        duplicate_ratio: DUPLICATE_RATIO,
        pool: usize::MAX,
        refs: REFS,
        orgs: ["dm", "de", "opt", "ehc", "bwcost"]
            .map(str::to_owned)
            .to_vec(),
        sizes: ["1K", "2K", "4K", "8K", "16K", "32K"]
            .map(str::to_owned)
            .to_vec(),
        ..MixConfig::default()
    })
    .expect("the serve workload's mix is valid")
}

/// Writes the journal a long-running server would boot from: synthetic
/// results under keys no request of the mix produces.
fn write_journal(path: &Path) -> Result<(), String> {
    let mut journal = Journal::open(path).map_err(|e| e.to_string())?;
    for i in 0..JOURNAL_RECORDS as u64 {
        let key = job_key(&["perfbench/fixture", &i.to_string()]);
        let stats = CacheStats::from_counts(100_000 + i, 1_000 + i % 977);
        let value = api::result_to_journal("direct-mapped fixture", stats, None);
        journal.record(&key, &value).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Drains the server and joins its threads.
fn stop(server: Server) {
    server.shutdown();
    server.join();
}

fn line_count(path: &Path) -> usize {
    std::fs::read(path).map_or(0, |bytes| bytes.iter().filter(|&&b| b == b'\n').count())
}

/// One request as the sender saw it.
struct Sample {
    index: usize,
    /// Completion minus due time.
    latency_ms: f64,
    /// Send time minus due time.
    lag_ms: f64,
    /// Completion minus send time.
    service_ms: f64,
    outcome: Result<client::HttpResponse, String>,
}

/// Sends `bodies[i]` at `start + i / RATE`, striped over `senders`
/// threads.
fn drive(addr: SocketAddr, bodies: &[String], senders: usize) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|sender| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for index in (sender..bodies.len()).step_by(senders) {
                        let due = start + Duration::from_secs_f64(index as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let outcome =
                            client::call(addr, "POST", "/simulate", &bodies[index], TIMEOUT);
                        let done = Instant::now();
                        let ms = |d: Duration| d.as_secs_f64() * 1e3;
                        samples.push(Sample {
                            index,
                            latency_ms: ms(done - due),
                            lag_ms: ms(sent.saturating_duration_since(due)),
                            service_ms: ms(done - sent),
                            outcome,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// The in-process answer to every distinct request, keyed by body: what
/// `api::run` returns, rendered with `cached: false`. Times the request
/// path's layers on the way: profile-trace generation, `api::load` and
/// `SimulationRequest::content_key`.
fn expect<'a>(
    requests: &[SimulationRequest],
    bodies: &'a [String],
    report: &mut Report,
) -> HashMap<&'a str, Result<String, String>> {
    let mut expected = HashMap::new();
    let (mut generate, mut load, mut key) = (Vec::new(), Vec::new(), Vec::new());
    for (request, body) in requests.iter().zip(bodies) {
        if expected.contains_key(body.as_str()) {
            continue;
        }
        if let TraceSource::Profile(name) = &request.trace {
            let profile = dynex_workload::spec::profile(name).expect("mix profiles exist");
            generate.push(timed(|| profile.trace(request.refs)).1);
        }
        let (loaded, load_s) = timed(|| api::load(request));
        load.push(load_s);
        let answer = loaded.map_err(|e| e.to_string()).and_then(|loaded| {
            key.push(timed(|| request.content_key(&loaded.addrs)).1);
            api::run_loaded(request, &loaded)
                .map(|response| response.to_json())
                .map_err(|e| e.to_string())
        });
        expected.insert(body.as_str(), answer);
    }
    report.set("workload.generate_s", median(&generate));
    report.set("api.load_s", median(&load));
    report.set("api.content_key_s", median(&key));
    expected
}

/// Runs the workload for the phase's budget.
pub fn run(phase: &Phase, report: &mut Report) {
    let jobs = phase.cores;
    let senders = phase.cores.min(2);
    report.set("run.jobs", jobs as f64);
    report.set("run.senders", senders as f64);

    let fixture = phase.work_dir.join("fixture.jsonl");
    let journal = phase.work_dir.join("serve.jsonl");
    report.check(write_journal(&fixture));
    let fixture_lines = line_count(&fixture);

    let mut replay = Vec::new();
    for _ in 0..REPLAY_REPS {
        let copy = phase.work_dir.join("replay.jsonl");
        let copied = std::fs::copy(&fixture, &copy).map_err(|e| e.to_string());
        report.check(copied.map(drop));
        let (opened, seconds) = timed(|| Journal::open(&copy));
        replay.push(seconds);
        report.check(match opened {
            Ok(j) if j.len() == JOURNAL_RECORDS => Ok(()),
            Ok(j) => Err(format!(
                "journal replayed {} of {JOURNAL_RECORDS} records",
                j.len()
            )),
            Err(e) => Err(format!("journal replay: {e}")),
        });
    }
    report.set("journal.replay_s", median(&replay));

    let config = ServeConfig {
        jobs,
        warm_journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    // One set-up: build the request stream and boot the server, which
    // replays the journal into its result cache.
    let count = (RATE * phase.budget.as_secs_f64()).ceil() as usize;
    let boot = |report: &mut Report| {
        if let Err(e) = std::fs::copy(&fixture, &journal) {
            report.check(Err(format!("copying the journal fixture: {e}")));
            return None;
        }
        let ((requests, server), seconds) = timed(|| {
            let mut mix = mix(phase.seed);
            let requests: Vec<SimulationRequest> = (0..count).map(|_| mix.next_request()).collect();
            (requests, Server::start(config.clone()))
        });
        let server = match server {
            Ok(server) => server,
            Err(e) => {
                report.check(Err(format!("server start: {e}")));
                return None;
            }
        };
        report.check(match server.counter("warm-start-entries") as usize {
            JOURNAL_RECORDS => Ok(()),
            n => Err(format!(
                "server warmed {n} of {JOURNAL_RECORDS} journal records"
            )),
        });
        Some((requests, server, seconds))
    };
    // The boot that serves the load is the first set-up repetition; the
    // others follow once the load has drained, so the load's resident set
    // holds no leftovers of earlier boots. A reference-loop timing precedes
    // each boot; none are taken during the load, which they would slow.
    let mut calibration = Calibration::new(1);
    calibration.sample();
    let Some((requests, server, seconds)) = boot(report) else {
        return;
    };
    let mut setup = vec![seconds];

    let bodies: Vec<String> = requests.iter().map(SimulationRequest::to_json).collect();
    let expected = expect(&requests, &bodies, report);
    // Computing the answers freed their traces; hand that memory back so
    // the load's peak resident set is the server's, not the harness's.
    release_free_memory();
    if let Some(sink) = &phase.sink {
        // Only the served load below belongs in the span totals.
        sink.reset();
    }
    // The memory the server needed at the busiest moment of the load.
    reset_peak_rss();
    let samples = drive(server.addr(), &bodies, senders);
    let peak_rss = peak_rss_mib();
    for name in [
        "requests-total",
        "cache-hits",
        "coalesced-hits",
        "sims-executed",
        "fused-jobs",
        "rejected-429",
    ] {
        let metric = format!("serve.{}", name.replace('-', "_"));
        report.set(&metric, server.counter(name) as f64);
    }
    let hit_ratio =
        server.counter("cache-hits") as f64 / server.counter("requests-total").max(1) as f64;
    report.set("serve.hit_ratio", hit_ratio);
    stop(server);
    report.set(
        "journal.appends",
        line_count(&journal).saturating_sub(fixture_lines) as f64,
    );
    for _ in 1..SETUP_REPS {
        calibration.sample();
        if let Some((_, server, seconds)) = boot(report) {
            setup.push(seconds);
            stop(server);
        }
    }
    report.set("setup_s", median(&setup) * calibration.scale());
    report.set("host.calib_ms", calibration.mean_ms());
    report.set("peak_rss_mb", peak_rss);

    let (mut all, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lags, mut service) = (Vec::new(), Vec::new());
    let mut unattributed = 0.0;
    for sample in &samples {
        let body = bodies[sample.index].as_str();
        let want = &expected[body];
        lags.push(sample.lag_ms);
        let checked = match (&sample.outcome, want) {
            (Err(e), _) => Err(format!("request {}: transport: {e}", sample.index)),
            (Ok(r), _) if r.status != 200 => Err(format!(
                "request {}: status {}: {}",
                sample.index, r.status, r.body
            )),
            (_, Err(e)) => Err(format!("request {}: in-process run: {e}", sample.index)),
            (Ok(r), Ok(want)) => {
                served_matches(&format!("request {}", sample.index), &r.body, want)
            }
        };
        if checked.is_ok() {
            let response = sample.outcome.as_ref().expect("checked");
            all.push(sample.latency_ms);
            service.push(sample.service_ms);
            let cached = SimulationResponse::from_json(&response.body).is_some_and(|r| r.cached);
            if cached { &mut hits } else { &mut misses }.push(sample.latency_ms);
            if let (Some(sink), Some(trace)) = (&phase.sink, &response.trace) {
                let server_ms = sink.trace_us(trace) as f64 / 1e3;
                unattributed += (sample.service_ms - server_ms).max(0.0) / 1e3;
            }
        }
        report.check(checked);
    }

    report.set("units", all.len() as f64);
    // Request latencies are not scaled: they barely follow the reference
    // loop (a hit stays near 1 ms while the loop's time varies by half),
    // so scaling them would only add the loop's noise.
    report.set("op_ms", median(&all));
    report.set("fresh_ms", median(&misses));
    report.set("e2e.serve_hit_p50_ms", median(&hits));
    report.set("e2e.serve_miss_p50_ms", median(&misses));
    report.set("e2e.serve_p99_ms", quantile(&all, 0.99));
    report.set(
        "load.send_lag_max_ms",
        lags.iter().copied().fold(0.0, f64::max),
    );
    report.set("load.service_p50_ms", median(&service));
    if phase.sink.is_some() {
        report.set("unattributed_s", unattributed);
    }
}
