//! Fault-isolated sweep execution.
//!
//! [`crate::execute`] is the fast path: a panicking job aborts the whole
//! sweep and a hanging job blocks it forever. [`execute_resilient`] is its
//! fallible sibling for production sweeps over thousands of points:
//!
//! * every job runs under `catch_unwind`, so a panic becomes a structured
//!   [`JobError`] in that job's slot instead of tearing down the pool;
//! * a configurable bounded retry budget re-queues panicked jobs before
//!   giving up on them;
//! * an optional per-job soft deadline marks overrunning jobs
//!   [`JobFailure::TimedOut`] — the sweep completes without them, and a
//!   replacement worker is spawned so pool capacity is not silently lost to
//!   a stuck thread.
//!
//! The determinism contract is inherited from the pool: successful slots
//! hold exactly the value a serial run would produce, in plan order, for
//! every worker count. Only *whether* a slot failed can depend on wall-clock
//! behaviour (deadlines), never the value of a successful slot.
//!
//! Because a hung job cannot be cancelled, workers are detached
//! `std::thread` spawns over `Arc`-shared state rather than scoped borrows —
//! which is why `execute_resilient` takes `Arc<Vec<T>>` and `'static`
//! bounds. A worker stuck in a hung job parks on a dead queue once the sweep
//! finishes and exits with the process.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a sweep slot failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked on its final allowed attempt; `payload` is the
    /// panic message (or a placeholder for non-string payloads).
    Panicked {
        /// The stringified panic payload.
        payload: String,
    },
    /// The job overran the soft deadline; any result it eventually produces
    /// is discarded.
    TimedOut {
        /// The deadline it overran.
        limit: Duration,
    },
}

/// A failed sweep slot: which plan point, what happened, how long it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the point in the plan (results stay in plan order, so this
    /// is also the slot index).
    pub plan_index: usize,
    /// Attempts started for this point (1 = no retries were needed/allowed).
    pub attempts: u32,
    /// Wall-clock time of the failing attempt (for timeouts: how long the
    /// job had been running when it was marked overdue).
    pub elapsed: Duration,
    /// What went wrong.
    pub failure: JobFailure,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            JobFailure::Panicked { payload } => write!(
                f,
                "job {} panicked after {} attempt(s) ({:.1?}): {payload}",
                self.plan_index, self.attempts, self.elapsed
            ),
            JobFailure::TimedOut { limit } => write!(
                f,
                "job {} exceeded the {:.1?} deadline (ran {:.1?})",
                self.plan_index, limit, self.elapsed
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Fault-tolerance knobs for [`execute_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// Retries allowed per job after a panic (0 = fail on the first panic).
    /// Panics in a deterministic job recur, so this mainly guards jobs with
    /// environmental failure modes (I/O, allocation pressure).
    pub max_retries: u32,
    /// Soft per-job deadline. `None` waits forever — a hung job then blocks
    /// the sweep exactly like [`crate::execute`] would.
    pub deadline: Option<Duration>,
    /// How often the collector checks running jobs against the deadline.
    pub watchdog_tick: Duration,
}

impl Default for Resilience {
    fn default() -> Resilience {
        Resilience {
            max_retries: 0,
            deadline: None,
            watchdog_tick: Duration::from_millis(25),
        }
    }
}

impl Resilience {
    /// Default policy with a retry budget.
    pub fn with_retries(max_retries: u32) -> Resilience {
        Resilience {
            max_retries,
            ..Resilience::default()
        }
    }

    /// Sets the soft per-job deadline.
    pub fn deadline(mut self, limit: Duration) -> Resilience {
        self.deadline = Some(limit);
        self
    }
}

/// The outcome of [`execute_resilient`]: per-slot results in plan order.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    results: Vec<Result<R, JobError>>,
}

impl<R> SweepOutcome<R> {
    /// Per-slot results, in plan order.
    pub fn results(&self) -> &[Result<R, JobError>] {
        &self.results
    }
}

/// A claimed work item: plan index plus attempt number (1-based).
type Task = (usize, u32);

/// What a worker reports back for one attempt.
struct Done<R> {
    index: usize,
    attempt: u32,
    outcome: Result<R, String>,
    elapsed: Duration,
}

/// State shared between the collector and every (possibly replacement)
/// worker.
struct Shared<T, F> {
    items: Arc<Vec<T>>,
    f: F,
    /// The work queue; the receiving end is serialized behind a mutex as in
    /// [`crate::execute`].
    queue: Mutex<mpsc::Receiver<Task>>,
    /// Per-slot `(started-at, attempt)` of the currently running attempt,
    /// for the watchdog. `None` while no worker is executing that slot.
    starts: Vec<Mutex<Option<(Instant, u32)>>>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

fn spawn_worker<T, R, F>(shared: Arc<Shared<T, F>>, result_tx: Sender<Done<R>>)
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    std::thread::spawn(move || loop {
        // Take the lock only for the dequeue, never while running f.
        let (index, attempt) = match shared.queue.lock().expect("queue lock").recv() {
            Ok(task) => task,
            Err(_) => break, // queue closed: sweep finished
        };
        let begun = Instant::now();
        *shared.starts[index].lock().expect("start slot") = Some((begun, attempt));
        // AssertUnwindSafe: jobs are pure functions of their point (the
        // pool's determinism contract already requires this), so observing
        // `f` and `items` again after a contained panic is sound.
        let outcome = catch_unwind(AssertUnwindSafe(|| (shared.f)(&shared.items[index])));
        let elapsed = begun.elapsed();
        *shared.starts[index].lock().expect("start slot") = None;
        // One latency sample per attempt (retries count separately): the
        // p99 of `engine.attempt` is the job-level tail a sweep operator
        // tunes the watchdog deadline against.
        dynex_obs::span::record_stage("engine.attempt", elapsed);
        let done = Done {
            index,
            attempt,
            outcome: outcome.map_err(|p| panic_message(p.as_ref())),
            elapsed,
        };
        if result_tx.send(done).is_err() {
            break; // collector gone: shutting down
        }
    });
}

/// Runs `f` over every item on `jobs` detached worker threads with panic
/// containment, bounded retries, and an optional soft deadline; returns
/// per-slot `Result`s **in plan order**.
///
/// Successful slots are bit-identical to a serial `items.iter().map(f)` for
/// every `jobs` value. A panicking job fails only its own slot
/// ([`JobFailure::Panicked`], after `resilience.max_retries` re-queues); a
/// job overrunning `resilience.deadline` is marked
/// [`JobFailure::TimedOut`], a replacement worker restores pool capacity,
/// and the sweep completes without it.
///
/// With `deadline: None` a hung job blocks forever, exactly like
/// [`crate::execute`] — supply a deadline to guarantee termination.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynex_engine::{execute_resilient, JobFailure, Resilience};
///
/// let items = Arc::new(vec![1u64, 2, 3, 4]);
/// let outcome = execute_resilient(items, 2, Resilience::default(), |&x| {
///     if x == 3 {
///         panic!("boom");
///     }
///     x * x
/// });
/// let results = outcome.results();
/// assert_eq!(results[0], Ok(1));
/// assert_eq!(results[1], Ok(4));
/// assert!(matches!(
///     results[2].as_ref().unwrap_err().failure,
///     JobFailure::Panicked { .. }
/// ));
/// assert_eq!(results[3], Ok(16));
/// ```
pub fn execute_resilient<T, R, F>(
    items: Arc<Vec<T>>,
    jobs: usize,
    resilience: Resilience,
    f: F,
) -> SweepOutcome<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    if n == 0 {
        return SweepOutcome {
            results: Vec::new(),
        };
    }
    let jobs = jobs.clamp(1, n);

    let (task_tx, task_rx) = mpsc::channel::<Task>();
    for index in 0..n {
        task_tx.send((index, 1)).expect("queue receiver alive");
    }
    let shared = Arc::new(Shared {
        items,
        f,
        queue: Mutex::new(task_rx),
        starts: (0..n).map(|_| Mutex::new(None)).collect(),
    });
    let (result_tx, result_rx) = mpsc::channel::<Done<R>>();
    for _ in 0..jobs {
        spawn_worker(Arc::clone(&shared), result_tx.clone());
    }

    let mut results: Vec<Option<Result<R, JobError>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut resolved = 0usize;
    let tick = resilience.watchdog_tick.max(Duration::from_millis(1));

    while resolved < n {
        match result_rx.recv_timeout(tick) {
            Ok(done) => {
                if results[done.index].is_some() {
                    continue; // late result for a slot the watchdog gave up on
                }
                match done.outcome {
                    Ok(value) => {
                        results[done.index] = Some(Ok(value));
                        resolved += 1;
                    }
                    Err(payload) => {
                        if done.attempt <= resilience.max_retries {
                            dynex_obs::span::record_stage("engine.retry", done.elapsed);
                            task_tx
                                .send((done.index, done.attempt + 1))
                                .expect("queue receiver alive");
                        } else {
                            results[done.index] = Some(Err(JobError {
                                plan_index: done.index,
                                attempts: done.attempt,
                                elapsed: done.elapsed,
                                failure: JobFailure::Panicked { payload },
                            }));
                            resolved += 1;
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let Some(limit) = resilience.deadline else {
                    continue;
                };
                // Watchdog sweep: mark overdue slots TimedOut and replace
                // their (presumed stuck) workers.
                for (index, slot) in results.iter_mut().enumerate() {
                    if slot.is_some() {
                        continue;
                    }
                    let running = *shared.starts[index].lock().expect("start slot");
                    let Some((begun, attempt)) = running else {
                        continue;
                    };
                    let elapsed = begun.elapsed();
                    if elapsed > limit {
                        dynex_obs::span::record_stage("engine.watchdog-timeout", elapsed);
                        *slot = Some(Err(JobError {
                            plan_index: index,
                            attempts: attempt,
                            elapsed,
                            failure: JobFailure::TimedOut { limit },
                        }));
                        resolved += 1;
                        spawn_worker(Arc::clone(&shared), result_tx.clone());
                    }
                }
            }
            // The collector holds a result sender, so workers can never all
            // disconnect first.
            Err(RecvTimeoutError::Disconnected) => unreachable!("collector holds a sender"),
        }
    }
    // Closing the queue wakes idle workers so they exit; workers stuck in
    // hung jobs stay parked on their job until the process ends.
    drop(task_tx);

    SweepOutcome {
        results: results
            .into_iter()
            .map(|slot| slot.expect("all slots resolved"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_sweep_matches_serial_for_every_worker_count() {
        let items: Vec<u64> = (0..31).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 7 + 1).collect();
        for jobs in [1, 2, 4, 16] {
            let outcome =
                execute_resilient(Arc::new(items.clone()), jobs, Resilience::default(), |&x| {
                    x * 7 + 1
                });
            let values: Vec<u64> = outcome
                .results()
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect();
            assert_eq!(values, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_plan() {
        let outcome = execute_resilient(
            Arc::new(Vec::<u64>::new()),
            4,
            Resilience::default(),
            |&x| x,
        );
        assert!(outcome.results().is_empty());
    }

    #[test]
    fn panic_is_contained_to_its_slot() {
        let items: Vec<u64> = (0..8).collect();
        let outcome = execute_resilient(Arc::new(items), 3, Resilience::default(), |&x| {
            if x == 5 {
                panic!("job five exploded");
            }
            x + 100
        });
        for (i, r) in outcome.results().iter().enumerate() {
            if i != 5 {
                assert_eq!(*r, Ok(i as u64 + 100));
            }
        }
        let err = outcome.results()[5].as_ref().unwrap_err();
        assert_eq!(err.plan_index, 5);
        assert_eq!(err.attempts, 1);
        assert!(matches!(
            &err.failure,
            JobFailure::Panicked { payload } if payload.contains("exploded")
        ));
    }

    #[test]
    fn retry_budget_rescues_transient_panics() {
        static FLAKY_CALLS: AtomicU32 = AtomicU32::new(0);
        let items: Vec<u64> = (0..4).collect();
        let outcome = execute_resilient(Arc::new(items), 2, Resilience::with_retries(2), |&x| {
            if x == 2 && FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            x
        });
        // Two panicking attempts, then the rescuing third.
        assert_eq!(FLAKY_CALLS.load(Ordering::SeqCst), 3);
        assert_eq!(outcome.results(), &[Ok(0), Ok(1), Ok(2), Ok(3)]);
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let outcome = execute_resilient(
            Arc::new(vec![0u8]),
            1,
            Resilience::with_retries(2),
            |_| -> u8 { panic!("always") },
        );
        let err = outcome.results()[0].as_ref().unwrap_err();
        assert_eq!(err.attempts, 3); // 1 initial + 2 retries
    }

    #[test]
    fn hung_job_times_out_and_sweep_completes() {
        let items: Vec<u64> = (0..6).collect();
        let outcome = execute_resilient(
            Arc::new(items),
            2,
            Resilience::default().deadline(Duration::from_millis(100)),
            |&x| {
                if x == 1 {
                    std::thread::sleep(Duration::from_secs(30));
                }
                x * 2
            },
        );
        let err = outcome.results()[1].as_ref().unwrap_err();
        assert!(matches!(err.failure, JobFailure::TimedOut { .. }));
        // Every other slot is intact and correctly valued.
        for (i, r) in outcome.results().iter().enumerate() {
            if i != 1 {
                assert_eq!(*r, Ok(i as u64 * 2));
            }
        }
    }

    #[test]
    fn panicking_and_hanging_jobs_in_one_sweep_at_any_worker_count() {
        // The acceptance scenario: one panicking and one hanging job;
        // everything else must come back bit-identical to a clean run, at
        // every worker count (including a single worker, where the
        // replacement spawn is what keeps the sweep moving).
        let items: Vec<u64> = (0..10).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x + 7).collect();
        for jobs in [1, 2, 4, 8] {
            let outcome = execute_resilient(
                Arc::new(items.clone()),
                jobs,
                Resilience::default().deadline(Duration::from_millis(150)),
                |&x| {
                    match x {
                        3 => panic!("deliberate panic"),
                        7 => std::thread::sleep(Duration::from_secs(30)),
                        _ => {}
                    }
                    x + 7
                },
            );
            for (i, r) in outcome.results().iter().enumerate() {
                match i {
                    3 => assert!(
                        matches!(r.as_ref().unwrap_err().failure, JobFailure::Panicked { .. }),
                        "jobs={jobs}"
                    ),
                    7 => assert!(
                        matches!(r.as_ref().unwrap_err().failure, JobFailure::TimedOut { .. }),
                        "jobs={jobs}"
                    ),
                    _ => assert_eq!(*r, Ok(expected[i]), "jobs={jobs} slot={i}"),
                }
            }
        }
    }

    #[test]
    fn job_error_display_names_the_slot() {
        let e = JobError {
            plan_index: 4,
            attempts: 2,
            elapsed: Duration::from_millis(10),
            failure: JobFailure::Panicked {
                payload: "kaput".to_owned(),
            },
        };
        let text = e.to_string();
        assert!(text.contains("job 4"));
        assert!(text.contains("kaput"));
        let t = JobError {
            plan_index: 1,
            attempts: 1,
            elapsed: Duration::from_millis(300),
            failure: JobFailure::TimedOut {
                limit: Duration::from_millis(200),
            },
        };
        assert!(t.to_string().contains("deadline"));
    }
}
