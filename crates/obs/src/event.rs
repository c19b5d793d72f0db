//! Typed simulator events.
//!
//! Every observable thing a dynex simulator does is described by one
//! [`Event`] value. Events are small `Copy` structs so that emitting one
//! through a [`crate::Probe`] costs a handful of register moves — and
//! nothing at all once the [`crate::NoopProbe`] monomorphizes the emission
//! away.

use std::fmt;

/// Did the reference hit or miss?
///
/// Mirrors `dynex_cache::AccessOutcome` without depending on it: `dynex-obs`
/// sits *below* the simulator crates in the dependency graph so they can all
/// emit events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The reference was served without a memory fetch.
    Hit,
    /// The reference required a memory fetch.
    Miss,
}

impl Outcome {
    /// `true` for [`Outcome::Miss`].
    pub fn is_miss(self) -> bool {
        matches!(self, Outcome::Miss)
    }

    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
        }
    }
}

/// Why an access resolved the way it did.
///
/// The simulator that handles the access names the cause itself, so every
/// variant is a mechanism of some cache organization; there is no
/// catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Hit in the primary array.
    Resident,
    /// Hit rescued by a victim buffer.
    VictimBuffer,
    /// Hit served by a stream buffer.
    StreamBuffer,
    /// Hit served by a last-line buffer.
    LineBuffer,
    /// Miss that filled a previously invalid line.
    Cold,
    /// Miss that displaced a valid line (the conflict/capacity case).
    Replace,
    /// Miss passed to the CPU without storing (dynamic exclusion).
    Bypass,
}

impl Cause {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            Cause::Resident => "resident",
            Cause::VictimBuffer => "victim-buffer",
            Cause::StreamBuffer => "stream-buffer",
            Cause::LineBuffer => "line-buffer",
            Cause::Cold => "cold",
            Cause::Replace => "replace",
            Cause::Bypass => "bypass",
        }
    }
}

/// One observable simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// One reference was presented to a simulator.
    Access {
        /// The byte address referenced.
        addr: u32,
        /// The cache set the address maps to.
        set: u32,
        /// Hit or miss.
        outcome: Outcome,
        /// Why it resolved that way.
        cause: Cause,
    },
    /// A valid line was displaced from the primary array.
    Eviction {
        /// The set the eviction happened in.
        set: u32,
        /// Line address of the displaced block.
        victim: u32,
        /// Line address of the block taking its place.
        replacement: u32,
    },
    /// A line's sticky bit changed value (dynamic exclusion FSM).
    StickyFlip {
        /// The set whose sticky state changed.
        set: u32,
        /// The new sticky value.
        sticky: bool,
    },
    /// A block's hit-last bit was written.
    HitLastUpdate {
        /// Line address of the block whose bit changed.
        line: u32,
        /// The new hit-last value.
        hit_last: bool,
    },
    /// The FSM arbitrated a miss on a sticky line: load or bypass.
    ExclusionDecision {
        /// The set the decision was made in.
        set: u32,
        /// Line address of the referenced (challenger) block.
        line: u32,
        /// `true` if the block was loaded, `false` if it was bypassed.
        loaded: bool,
    },
    /// A corrupt record was skipped during lenient trace ingestion
    /// (`dynex_trace::io::ReadPolicy::Lenient`).
    TraceSkip {
        /// Reference index (binary format) or 1-based line number (text
        /// format) of the skipped record.
        offset: u64,
    },
}

impl Event {
    /// Stable lowercase kind tag used by the exporters (`"access"`,
    /// `"eviction"`, `"sticky-flip"`, `"hit-last"`, `"exclusion"`,
    /// `"trace-skip"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Access { .. } => "access",
            Event::Eviction { .. } => "eviction",
            Event::StickyFlip { .. } => "sticky-flip",
            Event::HitLastUpdate { .. } => "hit-last",
            Event::ExclusionDecision { .. } => "exclusion",
            Event::TraceSkip { .. } => "trace-skip",
        }
    }

    /// Serializes the event as a single-line JSON object (the JSONL record
    /// format of [`crate::export::write_events_jsonl`]).
    pub fn to_json(&self) -> String {
        match *self {
            Event::Access {
                addr,
                set,
                outcome,
                cause,
            } => format!(
                r#"{{"type":"access","addr":{addr},"set":{set},"outcome":"{}","cause":"{}"}}"#,
                outcome.name(),
                cause.name()
            ),
            Event::Eviction {
                set,
                victim,
                replacement,
            } => format!(
                r#"{{"type":"eviction","set":{set},"victim":{victim},"replacement":{replacement}}}"#
            ),
            Event::StickyFlip { set, sticky } => {
                format!(r#"{{"type":"sticky-flip","set":{set},"sticky":{sticky}}}"#)
            }
            Event::HitLastUpdate { line, hit_last } => {
                format!(r#"{{"type":"hit-last","line":{line},"hit_last":{hit_last}}}"#)
            }
            Event::ExclusionDecision { set, line, loaded } => {
                format!(r#"{{"type":"exclusion","set":{set},"line":{line},"loaded":{loaded}}}"#)
            }
            Event::TraceSkip { offset } => {
                format!(r#"{{"type":"trace-skip","offset":{offset}}}"#)
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates_and_names() {
        assert!(Outcome::Miss.is_miss());
        assert!(!Outcome::Hit.is_miss());
        assert_eq!(Outcome::Hit.name(), "hit");
        assert_eq!(Cause::Bypass.name(), "bypass");
    }

    #[test]
    fn json_shapes() {
        let e = Event::Access {
            addr: 64,
            set: 0,
            outcome: Outcome::Miss,
            cause: Cause::Cold,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"access","addr":64,"set":0,"outcome":"miss","cause":"cold"}"#
        );
        let e = Event::StickyFlip {
            set: 3,
            sticky: false,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"sticky-flip","set":3,"sticky":false}"#
        );
        assert_eq!(e.kind(), "sticky-flip");
        assert_eq!(e.to_string(), e.to_json());
        let e = Event::TraceSkip { offset: 17 };
        assert_eq!(e.to_json(), r#"{"type":"trace-skip","offset":17}"#);
        assert_eq!(e.kind(), "trace-skip");
    }
}
