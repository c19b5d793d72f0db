//! `dynex-serve` — serve cache simulations over HTTP.
//!
//! ```text
//! dynex-serve [--host ADDR] [--port N] [--jobs N] [--queue N] [--cache N]
//!             [--deadline-ms N] [--warm-journal FILE]
//!             [--journal-sync flush|fsync] [--trace-out FILE] [--shards N]
//! ```
//!
//! Binds (default `127.0.0.1:0` — an ephemeral port, printed on stdout),
//! then serves until `POST /shutdown` drains it:
//!
//! * `POST /simulate` — a [`dynex_experiments::api::SimulationRequest`] as
//!   JSON; responds with the simulation result JSON.
//! * `GET /metrics` — service counters as JSON.
//! * `GET /healthz` — liveness/drain state.
//! * `POST /shutdown` — graceful drain: stop accepting, finish queued work.
//!
//! Connections are served by a pool of reused handler threads. Its size
//! follows from `--queue` and `--jobs`: enough handlers for every queued
//! simulation, a batch of running ones, and `--jobs` more for cache hits.
//! Connections beyond it wait in a bounded accept queue; when that is full
//! too, the server answers `503` with a JSON error and counts
//! `rejected-connections`. Each simulation runs as soon as the dispatcher
//! is free, batched with whatever is already queued behind it.
//!
//! `--warm-journal` points at a `simcache --resume` / `experiments
//! --resume` journal: checkpointed results pre-populate the result cache
//! and fresh results are appended, so service restarts never recompute.
//! `--journal-sync` picks how far each append travels before the response
//! goes out: `flush` (the default) drains to the OS — a `kill -9` of the
//! worker cannot lose a recorded result — while `fsync` adds `fdatasync`
//! per record, surviving power loss at one disk round-trip per append.
//!
//! `--trace-out FILE` streams every span the service closes as JSONL —
//! one `{"trace":…,"span":…,"parent":…,"stage":…,"start_us":…,"dur_us":…}`
//! line per span. The trace id echoed in each response's `X-Dynex-Trace`
//! header (and in JSON error bodies) keys into this stream.
//!
//! `--shards N` switches to the scale-out topology: N worker *processes*
//! (each this same binary, each a full single-process server with its own
//! LRU, queue, and simulation pool) are spawned on ephemeral ports behind
//! a router bound to `--host`/`--port`. The router speaks the same four
//! endpoints, places `/simulate` requests with rendezvous hashing over the
//! request's routing key, relays shard responses byte-identically, merges
//! `/metrics` across the fleet, and fails loudly (`503` naming the shard)
//! when a worker dies. The fleet is self-healing: a supervisor thread
//! detects dead workers and respawns them on the same slot (same shard
//! id, same per-shard journal — the replacement boots warm) with capped
//! exponential backoff, while the router's per-shard circuit breaker
//! fast-fails the slot's keys until the replacement answers a probe.
//! `--warm-journal FILE` becomes the *base* path: shard `i` warms from
//! and appends to `FILE.shard-i`, so concurrent workers never interleave
//! writes in one journal. `--trace-out` applies to the router process
//! only.

use std::process::ExitCode;
use std::time::Duration;

use dynex_engine::SyncPolicy;
use dynex_serve::{Router, RouterConfig, ServeConfig, Server, ShardFleet};

fn usage() {
    eprintln!(
        "usage: dynex-serve [--host ADDR] [--port N] [--jobs N] [--queue N] [--cache N] \
         [--deadline-ms N] [--warm-journal FILE] \
         [--journal-sync flush|fsync] [--trace-out FILE] [--shards N]"
    );
    eprintln!();
    eprintln!("  --host ADDR           interface to bind (default 127.0.0.1)");
    eprintln!("  --port N              port to bind; 0 picks one (default 0, printed on stdout)");
    eprintln!("  --jobs N              simulation worker threads (default: all cores)");
    eprintln!("  --queue N             bounded queue depth; full queue answers 429 (default 64)");
    eprintln!("                        (with --jobs, also sizes the connection-handler pool)");
    eprintln!("  --cache N             LRU result-cache entries; 0 disables (default 1024)");
    eprintln!("  --deadline-ms N       default per-request deadline (default: none)");
    eprintln!(
        "  --warm-journal FILE   warm the cache from a --resume journal; append fresh results"
    );
    eprintln!(
        "  --journal-sync MODE   flush (default: survives kill -9) or fsync (survives power loss)"
    );
    eprintln!("  --trace-out FILE      stream closed spans as JSONL (request → kernel chunk)");
    eprintln!(
        "  --shards N            spawn N worker processes behind a router (default 0: \
         single-process mode)"
    );
}

fn parse_args() -> Result<Option<(ServeConfig, Option<String>, usize)>, String> {
    let mut config = ServeConfig::default();
    let mut trace_out = None;
    let mut shards = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--host" => config.host = value_of("--host")?,
            "--port" => {
                let value = value_of("--port")?;
                config.port = value
                    .parse()
                    .map_err(|_| format!("bad --port value {value:?}"))?;
            }
            "--jobs" => {
                let value = value_of("--jobs")?;
                config.jobs = value
                    .parse()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or(format!("bad --jobs value {value:?}"))?;
            }
            "--queue" => {
                let value = value_of("--queue")?;
                config.queue_capacity = value
                    .parse()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or(format!("bad --queue value {value:?} (positive integer)"))?;
            }
            "--cache" => {
                let value = value_of("--cache")?;
                config.cache_capacity = value
                    .parse()
                    .map_err(|_| format!("bad --cache value {value:?}"))?;
            }
            "--deadline-ms" => {
                let value = value_of("--deadline-ms")?;
                let ms: u64 = value
                    .parse()
                    .ok()
                    .filter(|&v| v > 0)
                    .ok_or(format!("bad --deadline-ms value {value:?}"))?;
                config.default_deadline = Some(Duration::from_millis(ms));
            }
            "--warm-journal" => {
                config.warm_journal = Some(value_of("--warm-journal")?.into());
            }
            "--journal-sync" => {
                config.journal_sync = SyncPolicy::parse(&value_of("--journal-sync")?)?;
            }
            "--trace-out" => trace_out = Some(value_of("--trace-out")?),
            "--shards" => {
                let value = value_of("--shards")?;
                shards = value
                    .parse()
                    .map_err(|_| format!("bad --shards value {value:?}"))?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some((config, trace_out, shards)))
}

/// The worker-process argument vector for shard `shard` — the parsed
/// config re-serialized, minus the listen port (the supervisor appends
/// `--port 0`) and with the warm journal fanned out per shard.
fn worker_args(config: &ServeConfig, shard: usize) -> Vec<String> {
    let mut args = vec!["--host".to_owned(), config.host.clone()];
    if config.jobs > 0 {
        args.extend(["--jobs".to_owned(), config.jobs.to_string()]);
    }
    args.extend(["--queue".to_owned(), config.queue_capacity.to_string()]);
    args.extend(["--cache".to_owned(), config.cache_capacity.to_string()]);
    if let Some(deadline) = config.default_deadline {
        args.extend(["--deadline-ms".to_owned(), deadline.as_millis().to_string()]);
    }
    if let Some(base) = &config.warm_journal {
        // Per-shard journals: N processes appending to one file would
        // interleave records; each shard owns `<base>.shard-<i>` instead.
        // A respawned shard re-derives the same suffix, which is what
        // makes warm recovery work.
        let mut path = base.as_os_str().to_owned();
        path.push(format!(".shard-{shard}"));
        args.extend([
            "--warm-journal".to_owned(),
            path.to_string_lossy().into_owned(),
        ]);
    }
    args.extend(["--journal-sync".to_owned(), config.journal_sync.to_string()]);
    args
}

/// Runs the `--shards N` topology: spawn the fleet, front it with a
/// router, serve until drained, then reap every worker.
fn run_sharded(config: ServeConfig, shards: usize) -> ExitCode {
    let binary = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: cannot locate own binary for worker spawn: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The supervisor re-invokes this closure on every respawn: the same
    // shard id re-derives the same per-shard journal suffix, so the
    // replacement worker boots warm.
    let worker_config = config.clone();
    let fleet = match ShardFleet::spawn(
        &binary,
        shards,
        move |shard| worker_args(&worker_config, shard),
        Duration::from_secs(30),
    ) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Router and supervisor share the live directory: respawns swap in
    // new worker addresses under the router, relay failures nudge the
    // supervisor.
    let router = match Router::start_with(
        RouterConfig {
            host: config.host.clone(),
            port: config.port,
            ..RouterConfig::default()
        },
        fleet.directory(),
    ) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE; // fleet drop kills the workers
        }
    };
    for (shard, addr) in fleet.addrs().iter().enumerate() {
        eprintln!("shard {shard} listening on {addr}");
    }
    // The same line scripts and tests wait for in single-process mode.
    println!("dynex-serve listening on {}", router.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    router.join(); // POST /shutdown relays the drain to every shard first
    dynex_obs::span::take_jsonl_writer();
    if let Err(e) = fleet.wait(Duration::from_secs(15)) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("dynex-serve router and {shards} shard(s) drained, exiting");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let (config, shards) = match parse_args() {
        Ok(Some((config, trace_out, shards))) => {
            if let Some(path) = trace_out {
                // Installed before the server boots so even startup-adjacent
                // spans land in the stream.
                if let Err(e) = dynex_obs::span::install_jsonl_path(&path) {
                    eprintln!("error: cannot open --trace-out {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            (config, shards)
        }
        Ok(None) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if shards > 0 {
        return run_sharded(config, shards);
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warmed = server.counter("warm-start-entries");
    if warmed > 0 {
        eprintln!("warm start: {warmed} cached result(s) loaded from the journal");
    }
    // The line scripts and tests wait for; stdout and flushed.
    println!("dynex-serve listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    server.join();
    // Drop (and flush) any --trace-out stream before exiting.
    dynex_obs::span::take_jsonl_writer();
    eprintln!("dynex-serve drained, exiting");
    ExitCode::SUCCESS
}
