//! The accept loop and connection-handler pool shared by [`crate::Server`]
//! and [`crate::Router`].
//!
//! One acceptor thread pulls connections off the listen socket and hands
//! them to a pool of handler threads through a bounded accept queue. A
//! handler thread is spawned only when a connection arrives, no handler is
//! free to take it, and the pool is below its cap; it then stays alive and
//! takes later connections, so a warm service spawns no thread per request
//! and an idle one holds only the threads it has needed. A connection that
//! finds every handler busy waits in the accept queue; one that finds the
//! queue full too is answered `503` at once with a structured capacity
//! error and counted, never buffered without bound. Connections accepted
//! during a drain get the owner's explicit draining `503`.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dynex_obs::MetricsRegistry;

use crate::http::write_response;

/// Connections that may wait for a handler before the acceptor refuses
/// more: one dispatcher batch ([`crate::server::MAX_BATCH`]), so a burst as
/// large as the biggest plan (a storm of duplicates, say) waits for a free
/// handler instead of bouncing.
const BACKLOG: usize = crate::server::MAX_BATCH;

/// Locks `mutex`, recovering the guard when a previous holder panicked.
///
/// Every structure behind the service's shared locks survives a panicking
/// holder intact — counters, the LRU map, the flight map, the journal
/// handle, and the accept queue are each updated with operations that
/// either complete or leave the value untouched — so recovering from poison
/// is strictly better than letting one panicked connection handler wedge
/// `/metrics`, the result cache, and graceful drain for the whole process.
pub(crate) fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the acceptor needs from the service it feeds.
pub(crate) trait Service: Send + Sync + 'static {
    /// The `503` body of a connection caught by the drain.
    const DRAINING: &'static str;
    /// Counter of connections refused because every handler was busy and
    /// the accept queue was full.
    const REJECTED: &'static str;
    /// Gauge of live handler threads.
    const HANDLERS: &'static str;

    /// Whether a graceful drain has begun.
    fn draining(&self) -> bool;

    /// The registry the two metrics above live in.
    fn metrics(&self) -> &Mutex<MetricsRegistry>;

    /// Serves one connection to completion. `accepted` is when the acceptor
    /// pulled it off the listen socket.
    fn serve(service: &Arc<Self>, stream: TcpStream, accepted: Instant);
}

/// Connections waiting for a handler, and the handlers that take them.
struct Waiting {
    connections: VecDeque<(TcpStream, Instant)>,
    /// Every handler thread spawned; none exits before the pool closes.
    handlers: Vec<JoinHandle<()>>,
    /// Handler threads not serving a connection (waiting, or just spawned).
    free: usize,
    /// Set once the acceptor has exited: free handlers then exit too.
    closed: bool,
}

/// The handler pool: a cap on its threads and the accept queue feeding them.
struct Pool {
    /// Most handler threads the pool may hold.
    cap: usize,
    waiting: Mutex<Waiting>,
    ready: Condvar,
}

/// A running acceptor and its handler pool.
pub(crate) struct Acceptor {
    thread: JoinHandle<()>,
    pool: Arc<Pool>,
}

/// Starts the accept loop over `listener`, feeding a pool of at most
/// `handlers` threads (at least one).
pub(crate) fn start<S: Service>(
    service: Arc<S>,
    listener: TcpListener,
    handlers: usize,
) -> Acceptor {
    let pool = Arc::new(Pool {
        cap: handlers.max(1),
        waiting: Mutex::new(Waiting {
            connections: VecDeque::new(),
            handlers: Vec::new(),
            free: 0,
            closed: false,
        }),
        ready: Condvar::new(),
    });
    let thread = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || accept_loop(&service, &listener, &pool))
    };
    Acceptor { thread, pool }
}

impl Acceptor {
    /// Joins the acceptor (it exits once the drain flag is set and its
    /// blocking `accept` is poked), then every handler once the
    /// connections already accepted have been served.
    pub(crate) fn join(self) {
        self.thread.join().expect("acceptor thread");
        // Only the acceptor spawns handlers, and it has exited.
        let handlers = {
            let mut waiting = lock_or_recover(&self.pool.waiting);
            waiting.closed = true;
            std::mem::take(&mut waiting.handlers)
        };
        self.pool.ready.notify_all();
        for handler in handlers {
            handler.join().expect("handler thread");
        }
    }
}

fn accept_loop<S: Service>(service: &Arc<S>, listener: &TcpListener, pool: &Arc<Pool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if service.draining() {
                    return;
                }
                continue;
            }
        };
        if service.draining() {
            // The drain poke (or a late client): answer with an explicit
            // 503 rather than a connection reset (harmless on the poke's
            // throwaway connection), then flush whatever the listen
            // backlog still holds the same way before the listener drops.
            refuse(stream, S::DRAINING);
            let _ = listener.set_nonblocking(true);
            while let Ok((stream, _)) = listener.accept() {
                refuse(stream, S::DRAINING);
            }
            return;
        }
        if let Err(stream) = pool.submit(service, stream, Instant::now()) {
            lock_or_recover(service.metrics()).add(S::REJECTED, 1);
            let body = format!(
                r#"{{"error":"connection limit reached: {} handler threads busy and {BACKLOG} connections waiting, retry later","handlers":{},"backlog":{BACKLOG}}}"#,
                pool.cap, pool.cap
            );
            refuse(stream, &body);
        }
    }
}

/// Answers a connection the service will not serve with a `503`.
fn refuse(mut stream: TcpStream, body: &str) {
    let _ = write_response(&mut stream, 503, body);
}

impl Pool {
    /// Queues a connection for a handler, spawning one if none is free and
    /// the pool is below its cap. Hands the connection back when it can
    /// neither be served now nor wait in the accept queue.
    fn submit<S: Service>(
        self: &Arc<Self>,
        service: &Arc<S>,
        stream: TcpStream,
        accepted: Instant,
    ) -> Result<(), TcpStream> {
        let mut waiting = lock_or_recover(&self.waiting);
        // Connections that no free handler will take, this one included.
        let unclaimed = (waiting.connections.len() + 1).saturating_sub(waiting.free);
        let spawned = if unclaimed > 0 && waiting.handlers.len() < self.cap {
            self.spawn(service)
        } else {
            None
        };
        if let Some(handler) = spawned {
            waiting.handlers.push(handler);
            waiting.free += 1;
            let live = waiting.handlers.len() as u64;
            lock_or_recover(service.metrics()).set(S::HANDLERS, live);
        } else if unclaimed > BACKLOG || waiting.handlers.is_empty() {
            return Err(stream);
        }
        waiting.connections.push_back((stream, accepted));
        drop(waiting);
        self.ready.notify_one();
        Ok(())
    }

    /// Spawns one handler thread; `None` when the OS refuses.
    fn spawn<S: Service>(self: &Arc<Self>, service: &Arc<S>) -> Option<JoinHandle<()>> {
        let pool = Arc::clone(self);
        let service = Arc::clone(service);
        std::thread::Builder::new()
            .spawn(move || pool.handle(&service))
            .ok()
    }

    /// A handler thread: serves queued connections until the pool closes.
    fn handle<S: Service>(&self, service: &Arc<S>) {
        loop {
            let (stream, accepted) = {
                let mut waiting = lock_or_recover(&self.waiting);
                loop {
                    if let Some(connection) = waiting.connections.pop_front() {
                        waiting.free -= 1;
                        break connection;
                    }
                    if waiting.closed {
                        return;
                    }
                    waiting = self
                        .ready
                        .wait(waiting)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // A panicking connection must not shrink the pool: the panic is
            // contained here (the hook has already reported it) and the
            // thread goes back for the next connection.
            let _ = catch_unwind(AssertUnwindSafe(|| S::serve(service, stream, accepted)));
            lock_or_recover(&self.waiting).free += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Echoes `ok` for each connection, and panics on one that sends
    /// `panic`.
    struct Echo {
        draining: AtomicBool,
        metrics: Mutex<MetricsRegistry>,
    }

    impl Service for Echo {
        const DRAINING: &'static str = r#"{"error":"draining"}"#;
        const REJECTED: &'static str = "rejected";
        const HANDLERS: &'static str = "handlers";

        fn draining(&self) -> bool {
            self.draining.load(Ordering::SeqCst)
        }

        fn metrics(&self) -> &Mutex<MetricsRegistry> {
            &self.metrics
        }

        fn serve(_: &Arc<Echo>, mut stream: TcpStream, _: Instant) {
            let mut line = String::new();
            let _ = BufReader::new(&stream).read_line(&mut line);
            if line.trim() == "panic" {
                panic!("deliberate handler panic");
            }
            let _ = stream.write_all(b"ok");
        }
    }

    fn exchange(addr: std::net::SocketAddr, message: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(message.as_bytes()).expect("send");
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        reply
    }

    #[test]
    fn a_panicking_connection_does_not_shrink_the_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let echo = Arc::new(Echo {
            draining: AtomicBool::new(false),
            metrics: Mutex::new(MetricsRegistry::new()),
        });
        let acceptor = start(Arc::clone(&echo), listener, 1);

        assert_eq!(exchange(addr, "hello\n"), "ok");
        assert_eq!(exchange(addr, "panic\n"), "");
        // The pool's one thread survived its panic and serves on.
        assert_eq!(exchange(addr, "again\n"), "ok");
        assert_eq!(lock_or_recover(&echo.metrics).counter("handlers"), 1);

        echo.draining.store(true, Ordering::SeqCst);
        assert!(exchange(addr, "").contains("draining"));
        acceptor.join();
    }
}
