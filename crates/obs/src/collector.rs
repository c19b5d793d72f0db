//! The full-fat probe: counters, histograms, heatmap, and interval series
//! in one sink.

use std::collections::HashMap;

use crate::event::{Event, Outcome};
use crate::interval::IntervalSeries;
use crate::probe::Probe;
use crate::registry::{Histogram, MetricsRegistry};

/// Largest power-of-two reuse-distance bucket exponent (2^20 accesses);
/// larger distances fall in the overflow bucket.
const REUSE_MAX_EXP: u32 = 20;

/// A probe aggregating everything the exporters can write:
///
/// * per-event-kind counters (accesses, hits, misses, evictions, sticky
///   flips, hit-last updates, exclusion loads/bypasses),
/// * a reuse-distance histogram (accesses between successive touches of the
///   same address, power-of-two buckets),
/// * a per-set conflict heatmap (evictions per set),
/// * an [`IntervalSeries`] of per-window miss rates.
///
/// # Examples
///
/// ```
/// use dynex_obs::{Cause, Collector, Event, Outcome, Probe};
///
/// let mut c = Collector::new(1000);
/// c.emit(Event::Access { addr: 0, set: 0, outcome: Outcome::Miss, cause: Cause::Cold });
/// c.emit(Event::Access { addr: 0, set: 0, outcome: Outcome::Hit, cause: Cause::Resident });
/// let m = c.registry();
/// assert_eq!(m.counter("accesses"), 2);
/// assert_eq!(m.counter("misses"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    sticky_flips: u64,
    hit_last_updates: u64,
    exclusion_loads: u64,
    exclusion_bypasses: u64,
    trace_skips: u64,
    reuse: Histogram,
    last_touch: HashMap<u32, u64>,
    conflicts_by_set: Vec<u64>,
    intervals: IntervalSeries,
}

impl Collector {
    /// Creates a collector with `interval_window` accesses per interval
    /// window.
    pub fn new(interval_window: u64) -> Collector {
        Collector {
            accesses: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            sticky_flips: 0,
            hit_last_updates: 0,
            exclusion_loads: 0,
            exclusion_bypasses: 0,
            trace_skips: 0,
            reuse: Histogram::pow2(REUSE_MAX_EXP),
            last_touch: HashMap::new(),
            conflicts_by_set: Vec::new(),
            intervals: IntervalSeries::new(interval_window),
        }
    }

    /// Evictions per set, indexed by set number (sets never evicted from may
    /// be absent from the tail).
    pub fn conflicts_by_set(&self) -> &[u64] {
        &self.conflicts_by_set
    }

    /// The interval series accumulated so far.
    pub fn intervals(&self) -> &IntervalSeries {
        &self.intervals
    }

    /// The reuse-distance histogram accumulated so far.
    pub fn reuse_distance(&self) -> &Histogram {
        &self.reuse
    }

    /// Snapshots everything into a [`MetricsRegistry`] for export.
    pub fn registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set("accesses", self.accesses);
        m.set("hits", self.hits);
        m.set("misses", self.misses);
        m.set("evictions", self.evictions);
        m.set("sticky-flips", self.sticky_flips);
        m.set("hit-last-updates", self.hit_last_updates);
        m.set("exclusion-loads", self.exclusion_loads);
        m.set("exclusion-bypasses", self.exclusion_bypasses);
        if self.trace_skips > 0 {
            m.set("trace-skips", self.trace_skips);
        }
        m.put_histogram("reuse-distance", self.reuse.clone());
        if !self.conflicts_by_set.is_empty() {
            m.put_histogram("set-conflicts", self.set_conflicts_histogram());
        }
        m
    }

    /// Encodes the per-set eviction counts as a histogram whose bucket i
    /// (bound i+1) carries set i's eviction count; the overflow bucket is
    /// unused. This keeps the registry's export format uniform.
    fn set_conflicts_histogram(&self) -> Histogram {
        let n = self.conflicts_by_set.len() as u64;
        let mut counts = self.conflicts_by_set.clone();
        counts.push(0); // empty overflow bucket
        Histogram::from_parts((1..=n).collect(), counts)
    }
}

impl Probe for Collector {
    fn emit(&mut self, event: Event) {
        match event {
            Event::Access { addr, outcome, .. } => {
                self.accesses += 1;
                let miss = outcome.is_miss();
                match outcome {
                    Outcome::Hit => self.hits += 1,
                    Outcome::Miss => self.misses += 1,
                }
                let now = self.accesses;
                if let Some(prev) = self.last_touch.insert(addr, now) {
                    self.reuse.record(now - prev);
                }
                self.intervals.record(miss);
            }
            Event::Eviction { set, .. } => {
                self.evictions += 1;
                let set = set as usize;
                if set >= self.conflicts_by_set.len() {
                    self.conflicts_by_set.resize(set + 1, 0);
                }
                self.conflicts_by_set[set] += 1;
            }
            Event::StickyFlip { .. } => self.sticky_flips += 1,
            Event::HitLastUpdate { .. } => self.hit_last_updates += 1,
            Event::ExclusionDecision { loaded, .. } => {
                if loaded {
                    self.exclusion_loads += 1;
                } else {
                    self.exclusion_bypasses += 1;
                }
            }
            Event::TraceSkip { .. } => self.trace_skips += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Cause;

    fn access(addr: u32, outcome: Outcome) -> Event {
        Event::Access {
            addr,
            set: 0,
            outcome,
            cause: match outcome {
                Outcome::Hit => Cause::Resident,
                Outcome::Miss => Cause::Cold,
            },
        }
    }

    #[test]
    fn reuse_distance_tracks_per_address_gaps() {
        let mut c = Collector::new(100);
        c.emit(access(0, Outcome::Miss));
        c.emit(access(4, Outcome::Miss));
        c.emit(access(0, Outcome::Hit)); // distance 2
        c.emit(access(0, Outcome::Hit)); // distance 1
        assert_eq!(c.reuse_distance().total(), 2);
        // Distance 1 lands in bucket 0 (bound 1); distance 2 in bucket 1.
        assert_eq!(c.reuse_distance().counts()[0], 1);
        assert_eq!(c.reuse_distance().counts()[1], 1);
    }

    #[test]
    fn heatmap_accumulates_per_set() {
        let mut c = Collector::new(100);
        c.emit(Event::Eviction {
            set: 2,
            victim: 0,
            replacement: 1,
        });
        c.emit(Event::Eviction {
            set: 2,
            victim: 1,
            replacement: 0,
        });
        c.emit(Event::Eviction {
            set: 0,
            victim: 5,
            replacement: 6,
        });
        assert_eq!(c.conflicts_by_set(), &[1, 0, 2]);
    }

    #[test]
    fn registry_snapshot_is_complete() {
        let mut c = Collector::new(2);
        c.emit(access(0, Outcome::Miss));
        c.emit(Event::Eviction {
            set: 1,
            victim: 0,
            replacement: 9,
        });
        c.emit(Event::StickyFlip {
            set: 1,
            sticky: false,
        });
        c.emit(Event::HitLastUpdate {
            line: 3,
            hit_last: true,
        });
        c.emit(Event::ExclusionDecision {
            set: 1,
            line: 9,
            loaded: false,
        });
        let m = c.registry();
        assert_eq!(m.counter("accesses"), 1);
        assert_eq!(m.counter("misses"), 1);
        assert_eq!(m.counter("evictions"), 1);
        assert_eq!(m.counter("sticky-flips"), 1);
        assert_eq!(m.counter("hit-last-updates"), 1);
        assert_eq!(m.counter("exclusion-bypasses"), 1);
        assert!(m.histogram("reuse-distance").is_some());
        let sc = m.histogram("set-conflicts").unwrap();
        assert_eq!(sc.counts()[1], 1, "set 1 suffered the eviction");
    }

    #[test]
    fn intervals_fed_by_accesses_only() {
        let mut c = Collector::new(2);
        c.emit(access(0, Outcome::Miss));
        c.emit(Event::StickyFlip {
            set: 0,
            sticky: true,
        }); // not an access
        c.emit(access(4, Outcome::Hit));
        assert_eq!(c.intervals().points().len(), 1);
        assert_eq!(c.intervals().points()[0].misses, 1);
    }
}
