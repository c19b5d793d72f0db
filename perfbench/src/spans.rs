//! An in-memory consumer of the program's JSONL span stream.
//!
//! [`SpanSink::install`] hands the tracer a writer that parses each closed
//! span as it is written and folds it into per-stage totals: how many spans,
//! their summed duration, and their summed *self* time — the duration minus
//! the part of it that child spans cover. Children always close before their
//! parent, so each parent's child intervals are complete when its own line
//! arrives. Nothing is written to disk and memory stays bounded by the
//! number of spans open at once.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dynex_obs::json::{self, Json};
use dynex_obs::span;

/// Totals for one span stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Closed spans.
    pub count: u64,
    /// Summed durations, in microseconds.
    pub total_us: u64,
    /// Summed self time (duration not covered by child spans), in
    /// microseconds.
    pub self_us: u64,
}

impl StageTotals {
    /// Mean duration per span in milliseconds (0 without spans).
    pub fn mean_ms(self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Default)]
struct State {
    partial: Vec<u8>,
    stages: BTreeMap<String, StageTotals>,
    /// Child intervals `(start_us, end_us)` of spans not yet closed, keyed
    /// by the parent's span id.
    children: HashMap<u64, Vec<(u64, u64)>>,
    /// Summed durations of the `per_trace` stages, keyed by trace id.
    by_trace: HashMap<String, u64>,
    per_trace: &'static [&'static str],
    malformed: u64,
}

/// A cloneable handle on the aggregator the tracer writes into.
#[derive(Clone)]
pub struct SpanSink(Arc<Mutex<State>>);

fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    // Every update below completes or leaves the totals untouched.
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SpanSink {
    /// Installs a fresh sink as the process's span writer, which raises the
    /// tracing level to full. Durations of the `per_trace` stages are also
    /// summed per trace id (see [`SpanSink::trace_us`]).
    pub fn install(per_trace: &'static [&'static str]) -> SpanSink {
        let sink = SpanSink(Arc::new(Mutex::new(State {
            per_trace,
            ..State::default()
        })));
        span::install_jsonl_writer(Box::new(sink.clone()));
        sink
    }

    /// Forgets everything recorded so far (spans still open keep their
    /// children).
    pub fn reset(&self) {
        let mut state = lock(&self.0);
        state.stages.clear();
        state.by_trace.clear();
    }

    /// Per-stage totals so far.
    pub fn stages(&self) -> BTreeMap<String, StageTotals> {
        lock(&self.0).stages.clone()
    }

    /// One stage's totals so far (zero if it never closed).
    pub fn stage(&self, name: &str) -> StageTotals {
        lock(&self.0).stages.get(name).copied().unwrap_or_default()
    }

    /// Summed durations of the `per_trace` stages of one trace (by its
    /// 16-hex-digit id), in microseconds.
    pub fn trace_us(&self, trace: &str) -> u64 {
        lock(&self.0).by_trace.get(trace).copied().unwrap_or(0)
    }

    /// Span lines that could not be parsed.
    pub fn malformed(&self) -> u64 {
        lock(&self.0).malformed
    }
}

impl Write for SpanSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut state = lock(&self.0);
        state.partial.extend_from_slice(buf);
        while let Some(end) = state.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = state.partial.drain(..=end).collect();
            ingest(&mut state, &line[..end]);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One parsed span line.
struct SpanLine {
    trace: String,
    span: u64,
    parent: u64,
    stage: String,
    start_us: u64,
    dur_us: u64,
}

fn parse_line(line: &[u8]) -> Option<SpanLine> {
    let value = json::parse(std::str::from_utf8(line).ok()?).ok()?;
    let num = |key: &str| value.get(key).and_then(Json::as_u64);
    let text = |key: &str| value.get(key).and_then(Json::as_str).map(str::to_owned);
    Some(SpanLine {
        trace: text("trace")?,
        span: num("span")?,
        parent: num("parent")?,
        stage: text("stage")?,
        start_us: num("start_us")?,
        dur_us: num("dur_us")?,
    })
}

fn ingest(state: &mut State, line: &[u8]) {
    let Some(line) = parse_line(line) else {
        state.malformed += 1;
        return;
    };
    let end_us = line.start_us + line.dur_us;
    let children = state.children.remove(&line.span).unwrap_or_default();
    let covered = covered_us(&children, line.start_us, end_us);
    let totals = state.stages.entry(line.stage.clone()).or_default();
    totals.count += 1;
    totals.total_us += line.dur_us;
    totals.self_us += line.dur_us.saturating_sub(covered);
    if line.parent != 0 {
        state
            .children
            .entry(line.parent)
            .or_default()
            .push((line.start_us, end_us));
    }
    if state.per_trace.contains(&line.stage.as_str()) {
        *state.by_trace.entry(line.trace).or_default() += line.dur_us;
    }
}

/// Microseconds of `[start, end)` covered by the union of `intervals`
/// (children may overlap when they ran on several threads).
pub fn covered_us(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_us(&[], 0, 10), 0);
        assert_eq!(covered_us(&[(2, 4), (3, 6), (8, 20)], 0, 10), 6);
        assert_eq!(covered_us(&[(0, 100)], 10, 20), 10);
    }

    #[test]
    fn self_time_subtracts_children_and_totals_accumulate() {
        let sink = SpanSink(Arc::new(Mutex::new(State {
            per_trace: &["request"],
            ..State::default()
        })));
        let mut writer = sink.clone();
        let line = |span: u64, parent: u64, stage: &str, start: u64, dur: u64| {
            format!(
                "{{\"trace\":\"000000000000002a\",\"span\":{span},\"parent\":{parent},\
                 \"stage\":\"{stage}\",\"start_us\":{start},\"dur_us\":{dur}}}\n"
            )
        };
        // Children close first; the second child arrives split in two writes.
        writer
            .write_all(line(2, 1, "parse", 10, 5).as_bytes())
            .unwrap();
        let second = line(3, 1, "simulate", 20, 30);
        writer.write_all(&second.as_bytes()[..17]).unwrap();
        writer.write_all(&second.as_bytes()[17..]).unwrap();
        writer
            .write_all(line(1, 0, "request", 0, 100).as_bytes())
            .unwrap();
        writer.write_all(b"not json\n").unwrap();

        let request = sink.stage("request");
        assert_eq!(request.count, 1);
        assert_eq!(request.total_us, 100);
        assert_eq!(request.self_us, 65);
        assert_eq!(sink.stage("simulate").self_us, 30);
        assert_eq!(sink.trace_us("000000000000002a"), 100);
        assert_eq!(sink.malformed(), 1);
        assert_eq!(sink.stage("absent"), StageTotals::default());
    }
}
