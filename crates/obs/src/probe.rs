//! The [`Probe`] trait and the basic probe implementations.
//!
//! Simulators are generic over a probe (`P: Probe = NoopProbe`); every
//! interesting internal step calls [`Probe::emit`]. With the default
//! [`NoopProbe`] the call monomorphizes to nothing — uninstrumented runs pay
//! zero cost, which the differential tests in `tests/observability.rs`
//! verify behaviourally (byte-identical `CacheStats`).

use std::ops::{Add, AddAssign};

use crate::event::{Event, Outcome};

/// A sink for simulator [`Event`]s.
pub trait Probe {
    /// Receives one event. Implementations must not influence simulation —
    /// probes observe, they never steer.
    fn emit(&mut self, event: Event);
}

/// The zero-cost default probe: drops every event.
///
/// `NoopProbe` is a zero-sized type, so a simulator carrying one is
/// byte-for-byte the same size as an unobservable simulator, and the inlined
/// empty `emit` disappears entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    #[inline(always)]
    fn emit(&mut self, _event: Event) {}
}

/// Forwarding impl so a borrowed probe can be threaded through helpers.
impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn emit(&mut self, event: Event) {
        (**self).emit(event);
    }
}

/// Fan-out: a pair of probes both receive every event.
///
/// Tuples compose, so `((a, b), c)` fans out to three sinks.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn emit(&mut self, event: Event) {
        self.0.emit(event);
        self.1.emit(event);
    }
}

/// Per-kind event totals collected by a [`CountingProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `Event::Access` count.
    pub accesses: u64,
    /// Accesses with [`Outcome::Hit`].
    pub hits: u64,
    /// Accesses with [`Outcome::Miss`].
    pub misses: u64,
    /// `Event::Eviction` count.
    pub evictions: u64,
    /// `Event::StickyFlip` count.
    pub sticky_flips: u64,
    /// `Event::HitLastUpdate` count.
    pub hit_last_updates: u64,
    /// `Event::ExclusionDecision` with `loaded == true`.
    pub exclusion_loads: u64,
    /// `Event::ExclusionDecision` with `loaded == false` (bypasses).
    pub exclusion_bypasses: u64,
    /// `Event::TraceSkip` count (corrupt records skipped by lenient trace
    /// ingestion).
    pub trace_skips: u64,
}

impl EventCounts {
    /// Folds another tally into this one (shard/job merging).
    ///
    /// Exact for counts collected from disjoint partitions of a run: every
    /// field is a plain sum.
    pub fn merge(&mut self, other: &EventCounts) {
        *self += *other;
    }
}

impl Add for EventCounts {
    type Output = EventCounts;

    fn add(self, rhs: EventCounts) -> EventCounts {
        EventCounts {
            accesses: self.accesses + rhs.accesses,
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            sticky_flips: self.sticky_flips + rhs.sticky_flips,
            hit_last_updates: self.hit_last_updates + rhs.hit_last_updates,
            exclusion_loads: self.exclusion_loads + rhs.exclusion_loads,
            exclusion_bypasses: self.exclusion_bypasses + rhs.exclusion_bypasses,
            trace_skips: self.trace_skips + rhs.trace_skips,
        }
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: EventCounts) {
        *self = *self + rhs;
    }
}

/// A probe that tallies events by kind — the cheapest useful probe, used by
/// the differential tests and the experiment runner's per-triple summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    counts: EventCounts,
}

impl CountingProbe {
    /// A fresh, all-zero counter set.
    pub fn new() -> CountingProbe {
        CountingProbe::default()
    }

    /// The totals so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }
}

impl Probe for CountingProbe {
    #[inline]
    fn emit(&mut self, event: Event) {
        match event {
            Event::Access { outcome, .. } => {
                self.counts.accesses += 1;
                match outcome {
                    Outcome::Hit => self.counts.hits += 1,
                    Outcome::Miss => self.counts.misses += 1,
                }
            }
            Event::Eviction { .. } => self.counts.evictions += 1,
            Event::StickyFlip { .. } => self.counts.sticky_flips += 1,
            Event::HitLastUpdate { .. } => self.counts.hit_last_updates += 1,
            Event::ExclusionDecision { loaded, .. } => {
                if loaded {
                    self.counts.exclusion_loads += 1;
                } else {
                    self.counts.exclusion_bypasses += 1;
                }
            }
            Event::TraceSkip { .. } => self.counts.trace_skips += 1,
        }
    }
}

/// A probe that records every event in order (optionally capped).
///
/// Intended for exporting via
/// [`write_events_jsonl`](crate::export::write_events_jsonl) and for fine-
/// grained assertions in tests. For multi-million-reference traces prefer
/// [`CountingProbe`] or [`crate::Collector`] — a full log is O(trace).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    capacity: Option<usize>,
    dropped: u64,
}

impl EventLog {
    /// An unbounded log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// A log that keeps only the first `capacity` events and counts the rest
    /// in [`EventLog::dropped`].
    pub fn with_capacity_limit(capacity: usize) -> EventLog {
        EventLog {
            events: Vec::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events discarded because the capacity limit was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the log, returning the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Probe for EventLog {
    #[inline]
    fn emit(&mut self, event: Event) {
        if let Some(cap) = self.capacity {
            if self.events.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Cause;

    fn access(outcome: Outcome) -> Event {
        Event::Access {
            addr: 0,
            set: 0,
            outcome,
            cause: match outcome {
                Outcome::Hit => Cause::Resident,
                Outcome::Miss => Cause::Cold,
            },
        }
    }

    #[test]
    fn noop_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
    }

    #[test]
    fn counting_probe_tallies_by_kind() {
        let mut p = CountingProbe::new();
        p.emit(access(Outcome::Hit));
        p.emit(access(Outcome::Miss));
        p.emit(Event::Eviction {
            set: 0,
            victim: 1,
            replacement: 2,
        });
        p.emit(Event::StickyFlip {
            set: 0,
            sticky: true,
        });
        p.emit(Event::HitLastUpdate {
            line: 0,
            hit_last: false,
        });
        p.emit(Event::ExclusionDecision {
            set: 0,
            line: 0,
            loaded: true,
        });
        p.emit(Event::ExclusionDecision {
            set: 0,
            line: 0,
            loaded: false,
        });
        p.emit(Event::TraceSkip { offset: 3 });
        let c = p.counts();
        assert_eq!(c.accesses, 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.evictions, 1);
        assert_eq!(c.sticky_flips, 1);
        assert_eq!(c.hit_last_updates, 1);
        assert_eq!(c.exclusion_loads, 1);
        assert_eq!(c.exclusion_bypasses, 1);
        assert_eq!(c.trace_skips, 1);
    }

    #[test]
    fn event_counts_merge_sums_every_field() {
        let mut a = EventCounts {
            accesses: 2,
            hits: 1,
            misses: 1,
            evictions: 1,
            sticky_flips: 0,
            hit_last_updates: 3,
            exclusion_loads: 1,
            exclusion_bypasses: 0,
            trace_skips: 2,
        };
        let b = EventCounts {
            accesses: 5,
            hits: 2,
            misses: 3,
            evictions: 0,
            sticky_flips: 4,
            hit_last_updates: 1,
            exclusion_loads: 2,
            exclusion_bypasses: 6,
            trace_skips: 1,
        };
        let sum = a + b;
        a.merge(&b);
        assert_eq!(a, sum);
        assert_eq!(a.accesses, 7);
        assert_eq!(a.hits, 3);
        assert_eq!(a.misses, 4);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.sticky_flips, 4);
        assert_eq!(a.hit_last_updates, 4);
        assert_eq!(a.exclusion_loads, 3);
        assert_eq!(a.exclusion_bypasses, 6);
        assert_eq!(a.trace_skips, 3);
        // Zero is the identity.
        a += EventCounts::default();
        assert_eq!(a, sum);
    }

    #[test]
    fn merged_probe_counts_equal_single_probe_over_concatenation() {
        // Two probes over disjoint halves of an event stream merge to the
        // same totals as one probe over the whole stream.
        let events = [
            access(Outcome::Miss),
            access(Outcome::Hit),
            Event::ExclusionDecision {
                set: 0,
                line: 0,
                loaded: false,
            },
            access(Outcome::Hit),
            Event::StickyFlip {
                set: 1,
                sticky: true,
            },
        ];
        let mut whole = CountingProbe::new();
        let (mut left, mut right) = (CountingProbe::new(), CountingProbe::new());
        for (i, e) in events.iter().enumerate() {
            whole.emit(*e);
            if i < 2 {
                left.emit(*e);
            } else {
                right.emit(*e);
            }
        }
        let mut merged = left.counts();
        merged.merge(&right.counts());
        assert_eq!(merged, whole.counts());
    }

    #[test]
    fn event_log_caps_and_counts_drops() {
        let mut log = EventLog::with_capacity_limit(2);
        for _ in 0..5 {
            log.emit(access(Outcome::Hit));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.into_events().len(), 2);
    }

    #[test]
    fn pair_probe_fans_out() {
        let mut pair = (CountingProbe::new(), EventLog::new());
        pair.emit(access(Outcome::Miss));
        assert_eq!(pair.0.counts().misses, 1);
        assert_eq!(pair.1.events().len(), 1);
    }

    #[test]
    fn borrowed_probe_forwards() {
        let mut p = CountingProbe::new();
        fn through_ref<P: Probe>(mut probe: P, event: Event) {
            probe.emit(event);
        }
        through_ref(&mut p, access(Outcome::Hit));
        assert_eq!(p.counts().hits, 1);
    }
}
