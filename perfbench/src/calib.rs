//! A fixed reference loop, timed alongside each workload, that turns the
//! end-to-end times into times at one reference machine speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! tens of percent over minutes, in bursts a fraction of a second long:
//! other guests take the caches, the memory bandwidth and the hypervisor's
//! time, and page faults cost more or less. The program's own times follow
//! the host more than the program. The reference loop is harness code that
//! no change to the program touches, and it does the kinds of work the
//! simulators do: it faults in a fresh address array, replays it through a
//! direct-mapped tag array, and builds a next-use table through a hash map.
//!
//! A measuring process times the loop every [`EVERY`] between units of
//! work, on as many threads as the workload keeps busy, so the timings
//! sample the host's speed over the same stretch of time as the workload.
//! [`Calibration::scale`] is [`REFERENCE_MS`] over their mean: multiplied
//! by it, a time reads as it would on a host on which the loop takes
//! [`REFERENCE_MS`]. A change to the program moves a scaled time in the
//! same proportion as the raw one, while a slower or faster host moves the loop and
//! the workload alike and cancels.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dynex_obs::span;

use crate::report::mean;

/// References in one reference loop.
const LOOP_REFS: usize = 1 << 20;

/// Lines of the reference loop's direct-mapped tag array.
const LOOP_LINES: usize = 8192;

/// What one reference loop takes on the reference host, in milliseconds:
/// about what it takes on one thread of a 2-vCPU Xeon guest at 2.1 GHz.
const REFERENCE_MS: f64 = 50.0;

/// How often a measuring process times the reference loop.
const EVERY: Duration = Duration::from_millis(250);

/// The reference loop on one thread; returns a digest of its results so
/// none of the work can be optimized away.
fn reference_loop(seed: u64) -> u64 {
    let mut state = seed | 1;
    let mut pc: u32 = 0x1000;
    let addrs: Vec<u32> = (0..LOOP_REFS)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = (state >> 33) as u32;
            // Straight-line runs broken by jumps anywhere in 1 MiB of code.
            pc = if draw.is_multiple_of(16) {
                (draw & 0x3_ffff) << 2
            } else {
                pc + 4
            };
            pc
        })
        .collect();
    let mut tags = vec![u32::MAX; LOOP_LINES];
    let mut misses = 0u64;
    for &addr in &addrs {
        let line = addr >> 2;
        let slot = &mut tags[line as usize % LOOP_LINES];
        if *slot != line {
            *slot = line;
            misses += 1;
        }
    }
    let mut next = vec![u32::MAX; LOOP_REFS];
    let mut last: HashMap<u32, u32> = HashMap::new();
    for (i, &addr) in addrs.iter().enumerate().rev() {
        if let Some(previous) = last.insert(addr, i as u32) {
            next[i] = previous;
        }
    }
    misses
        ^ next
            .iter()
            .fold(0u64, |acc, &n| acc.wrapping_add(u64::from(n)))
}

/// Timings of the reference loop taken through one measuring process.
#[derive(Debug)]
pub struct Calibration {
    /// Threads each timing runs the loop on at once.
    threads: usize,
    /// Raw wall milliseconds of each timing.
    samples: Vec<f64>,
    /// When the last timing ended.
    last: Option<Instant>,
    /// The digest every loop must return.
    digest: u64,
}

impl Calibration {
    /// A calibration whose timings run the loop on `threads` threads at
    /// once, as many as the workload keeps busy.
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            threads: threads.max(1),
            samples: Vec::new(),
            last: None,
            digest: reference_loop(0),
        }
    }

    /// Times the reference loop once.
    pub fn sample(&mut self) {
        let _span = span::span("bench.calibrate");
        let started = Instant::now();
        let digests: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| scope.spawn(|| reference_loop(black_box(0))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference loop thread"))
                .collect()
        });
        self.samples.push(started.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
        assert!(
            digests.iter().all(|&d| d == self.digest),
            "the reference loop gave different results"
        );
    }

    /// Times the reference loop if [`EVERY`] has passed since the last
    /// timing.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|last| last.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// The mean raw time of one reference loop, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        mean(&self.samples)
    }

    /// The factor that scales a raw time on this host to the reference
    /// host: [`REFERENCE_MS`] over the mean timing (1 with no timings).
    pub fn scale(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE_MS / self.mean_ms()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_is_deterministic() {
        assert_eq!(reference_loop(0), reference_loop(0));
        let mut calibration = Calibration::new(2);
        calibration.sample();
        assert_eq!(calibration.samples.len(), 1);
        assert!(calibration.mean_ms() > 0.0);
    }

    #[test]
    fn scale_is_reference_over_the_mean_timing() {
        let mut calibration = Calibration::new(1);
        assert_eq!(calibration.scale(), 1.0);
        calibration.samples = vec![30.0, 120.0, 60.0];
        assert_eq!(calibration.mean_ms(), 70.0);
        assert_eq!(calibration.scale(), REFERENCE_MS / 70.0);
    }
}
