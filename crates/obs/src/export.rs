//! JSONL / JSON / CSV exporters over [`std::io::Write`].
//!
//! Formats:
//!
//! * **events JSONL** — one JSON object per line, `{"type":…}` tagged; see
//!   [`crate::Event::to_json`] for the per-variant shapes.
//! * **metrics JSON** — a single object
//!   `{"counters":{…},"histograms":{…},"intervals":[…]}` where intervals is
//!   present only when a series is supplied. A [`crate::Collector`]'s
//!   per-set heatmap travels here as the `set-conflicts` histogram.
//! * **intervals CSV** — `interval,start,accesses,misses,miss_rate` rows
//!   ([`crate::IntervalSeries::to_csv`]).

use std::io::{self, Write};

use crate::event::Event;
use crate::interval::IntervalSeries;
use crate::registry::MetricsRegistry;

/// Writes `events` as JSONL (one event object per line).
pub fn write_events_jsonl<W: Write>(mut w: W, events: &[Event]) -> io::Result<()> {
    for event in events {
        writeln!(w, "{}", event.to_json())?;
    }
    Ok(())
}

/// Serializes a registry (and optionally an interval series) into the
/// metrics JSON document format.
pub fn metrics_json(registry: &MetricsRegistry, intervals: Option<&IntervalSeries>) -> String {
    let base = registry.to_json();
    match intervals {
        None => base,
        Some(series) => {
            let mut out = base;
            debug_assert!(out.ends_with('}'));
            out.pop();
            out.push_str(&format!(
                r#","interval_window":{},"intervals":["#,
                series.window()
            ));
            for (i, p) in series.points().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    r#"{{"index":{},"start":{},"accesses":{},"misses":{}}}"#,
                    p.index, p.start, p.accesses, p.misses
                ));
            }
            out.push_str("]}");
            out
        }
    }
}

/// Writes the metrics JSON document to `w`, newline-terminated.
pub fn write_metrics_json<W: Write>(
    mut w: W,
    registry: &MetricsRegistry,
    intervals: Option<&IntervalSeries>,
) -> io::Result<()> {
    writeln!(w, "{}", metrics_json(registry, intervals))
}

/// Writes an interval series as CSV to `w`.
pub fn write_intervals_csv<W: Write>(mut w: W, intervals: &IntervalSeries) -> io::Result<()> {
    w.write_all(intervals.to_csv().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cause, Outcome};
    use crate::json::{self, Json};

    #[test]
    fn jsonl_lines_parse_individually() {
        let events = [
            Event::Access {
                addr: 4,
                set: 1,
                outcome: Outcome::Hit,
                cause: Cause::Resident,
            },
            Event::Eviction {
                set: 1,
                victim: 9,
                replacement: 4,
            },
        ];
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            json::parse(line).unwrap();
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("access"));
        assert_eq!(first.get("addr").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn metrics_json_with_intervals_parses() {
        let mut registry = MetricsRegistry::new();
        registry.add("accesses", 3);
        let mut series = IntervalSeries::new(2);
        series.record(true);
        series.record(false);
        series.record(true);
        let doc = metrics_json(&registry, Some(&series));
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("accesses"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            parsed.get("interval_window").and_then(Json::as_u64),
            Some(2)
        );
        let intervals = parsed.get("intervals").and_then(Json::as_array).unwrap();
        assert_eq!(intervals.len(), 1, "only completed windows are exported");
        assert_eq!(intervals[0].get("misses").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn metrics_json_without_intervals_is_bare_registry() {
        let registry = MetricsRegistry::new();
        assert_eq!(metrics_json(&registry, None), registry.to_json());
    }

    #[test]
    fn intervals_csv_writer() {
        let mut series = IntervalSeries::new(1);
        series.record(true);
        let mut buf = Vec::new();
        write_intervals_csv(&mut buf, &series).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("interval,start,accesses,misses,miss_rate\n"));
        assert!(text.contains("0,0,1,1,1.000000"));
    }
}
