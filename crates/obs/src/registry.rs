//! Named counters and fixed-bucket histograms.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::AddAssign;
use std::sync::OnceLock;

/// Shared empty map so [`MetricsRegistry::from_json`] can treat an absent
/// section as an empty one without allocating per call.
static EMPTY_OBJECT: OnceLock<BTreeMap<String, crate::json::Json>> = OnceLock::new();

/// Why a histogram could not be built — returned by the fallible
/// constructors so callers on untrusted-input paths (JSON import) can turn
/// a bad bucketing into a structured error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// No bucket bounds were supplied.
    EmptyBounds,
    /// `bounds[index - 1] >= bounds[index]`: unsorted or duplicate bounds.
    NotStrictlyIncreasing {
        /// Index of the offending bound.
        index: usize,
        /// The preceding bound.
        prev: u64,
        /// The bound that failed to exceed it.
        next: u64,
    },
    /// `counts.len() != bounds.len() + 1` in [`Histogram::try_from_parts`].
    CountsLength {
        /// `bounds.len() + 1`.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// A JSON document handed to [`Histogram::from_json`] did not have the
    /// `{"bounds":[…],"counts":[…]}` shape.
    Malformed(String),
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::EmptyBounds => {
                write!(f, "histogram needs at least one bucket bound")
            }
            HistogramError::NotStrictlyIncreasing { index, prev, next } => write!(
                f,
                "bounds must be strictly increasing \
                 (bounds[{}]={prev} >= bounds[{index}]={next})",
                index - 1
            ),
            HistogramError::CountsLength { expected, got } => write!(
                f,
                "need bounds.len() + 1 counts (expected {expected}, got {got})"
            ),
            HistogramError::Malformed(what) => write!(f, "malformed histogram JSON: {what}"),
        }
    }
}

impl std::error::Error for HistogramError {}

/// A histogram over fixed, caller-chosen bucket upper bounds.
///
/// A value `v` lands in the first bucket whose inclusive upper bound is
/// `>= v`; values above the last bound land in an implicit overflow bucket,
/// so `counts()` has `bounds().len() + 1` entries.
///
/// # Examples
///
/// ```
/// use dynex_obs::Histogram;
///
/// let mut h = Histogram::new(vec![1, 4, 16]);
/// h.record(1);
/// h.record(3);
/// h.record(100); // overflow
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram over inclusive upper `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<u64>) -> Histogram {
        match Histogram::try_new(bounds) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Histogram::new`]: validates the bounds and names exactly
    /// what is wrong instead of panicking — the constructor for bounds that
    /// arrive from outside the process (JSON import, config files).
    pub fn try_new(bounds: Vec<u64>) -> Result<Histogram, HistogramError> {
        if bounds.is_empty() {
            return Err(HistogramError::EmptyBounds);
        }
        if let Some(index) = (1..bounds.len()).find(|&i| bounds[i - 1] >= bounds[i]) {
            return Err(HistogramError::NotStrictlyIncreasing {
                index,
                prev: bounds[index - 1],
                next: bounds[index],
            });
        }
        let counts = vec![0; bounds.len() + 1];
        Ok(Histogram { bounds, counts })
    }

    /// Power-of-two bounds `1, 2, 4, … , 2^max_exp` — the shape used for
    /// reuse-distance histograms.
    pub fn pow2(max_exp: u32) -> Histogram {
        Histogram::new((0..=max_exp).map(|e| 1u64 << e).collect())
    }

    /// Builds a histogram from precomputed bucket counts.
    ///
    /// # Panics
    ///
    /// Panics on the same bound conditions as [`Histogram::new`] or if
    /// `counts.len() != bounds.len() + 1`.
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>) -> Histogram {
        match Histogram::try_from_parts(bounds, counts) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Histogram::from_parts`] (see [`Histogram::try_new`]).
    pub fn try_from_parts(bounds: Vec<u64>, counts: Vec<u64>) -> Result<Histogram, HistogramError> {
        let mut h = Histogram::try_new(bounds)?;
        if counts.len() != h.counts.len() {
            return Err(HistogramError::CountsLength {
                expected: h.counts.len(),
                got: counts.len(),
            });
        }
        h.counts = counts;
        Ok(h)
    }

    /// Rebuilds a histogram from its [`Histogram::to_json`] form (a parsed
    /// `{"bounds":[…],"counts":[…]}` object), validating shape and bounds.
    pub fn from_json(value: &crate::json::Json) -> Result<Histogram, HistogramError> {
        let array_of_u64 = |key: &str| -> Result<Vec<u64>, HistogramError> {
            let array = value
                .get(key)
                .and_then(crate::json::Json::as_array)
                .ok_or_else(|| HistogramError::Malformed(format!("{key:?} must be an array")))?;
            array
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        HistogramError::Malformed(format!(
                            "{key:?} entries must be non-negative integers"
                        ))
                    })
                })
                .collect()
        };
        Histogram::try_from_parts(array_of_u64("bounds")?, array_of_u64("counts")?)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
    }

    /// The inclusive bucket upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper bound of the
    /// bucket holding the `ceil(q * total)`-th smallest sample.
    ///
    /// Returns `None` for an empty histogram, and `u64::MAX` when the
    /// quantile falls in the overflow bucket (the sample exceeded every
    /// bound, so only "bigger than the last bound" is known). The result is
    /// an upper bound on the true quantile — exact to the bucket
    /// resolution, which for the log2 presets means within 2x.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        // counts sum to total and rank <= total, so the loop always returns.
        unreachable!("quantile rank exceeds recorded total")
    }

    /// Folds another histogram's buckets into this one (shard/job merging).
    ///
    /// Exact when the two histograms were recorded over disjoint partitions
    /// of a run: bucket counts are plain sums.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms over
    /// different bucketings has no well-defined result.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Serializes as a JSON object `{"bounds":[…],"counts":[…]}`.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"bounds":[{}],"counts":[{}]}}"#,
            join_u64(&self.bounds),
            join_u64(&self.counts)
        )
    }
}

impl AddAssign<&Histogram> for Histogram {
    /// `h += &other` is [`Histogram::merge`].
    fn add_assign(&mut self, rhs: &Histogram) {
        self.merge(rhs);
    }
}

impl AddAssign for Histogram {
    fn add_assign(&mut self, rhs: Histogram) {
        self.merge(&rhs);
    }
}

fn join_u64(values: &[u64]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// A registry of named `u64` counters and [`Histogram`]s.
///
/// Names are free-form; the dynex probes use `kebab-case` (`"accesses"`,
/// `"exclusion-bypasses"`, `"reuse-distance"`). `BTreeMap` keeps exports
/// deterministically ordered.
///
/// # Examples
///
/// ```
/// use dynex_obs::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.add("accesses", 2);
/// m.add("misses", 1);
/// assert_eq!(m.counter("accesses"), 2);
/// assert!(m.to_json().contains(r#""misses":1"#));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the named counter to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Inserts (or replaces) a histogram under `name`.
    pub fn put_histogram(&mut self, name: &str, histogram: Histogram) {
        self.histograms.insert(name.to_owned(), histogram);
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry into this one (shard/job merging): counters
    /// are summed; histograms present in both are bucket-merged, histograms
    /// only in `other` are cloned in.
    ///
    /// # Panics
    ///
    /// Panics if a histogram present in both registries has different bucket
    /// bounds (see [`Histogram::merge`]).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            self.add(name, value);
        }
        for (name, histogram) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(existing) => existing.merge(histogram),
                None => {
                    self.histograms.insert(name.clone(), histogram.clone());
                }
            }
        }
    }

    /// Rebuilds a registry from its [`MetricsRegistry::to_json`] form (a
    /// parsed `{"counters":{…},"histograms":{…}}` object).
    ///
    /// The inverse of the `/metrics` wire format, used by the dynex-serve
    /// router to merge per-shard registries and by dynex-load to cross-check
    /// client percentiles against the server. Extra top-level keys (such as
    /// the server's `latency_summary` splice) are ignored; malformed
    /// counters or histograms are structured errors, not panics.
    pub fn from_json(value: &crate::json::Json) -> Result<MetricsRegistry, HistogramError> {
        let mut registry = MetricsRegistry::new();
        let object = |key: &str| -> Result<&BTreeMap<String, crate::json::Json>, HistogramError> {
            match value.get(key) {
                Some(crate::json::Json::Obj(map)) => Ok(map),
                Some(_) => Err(HistogramError::Malformed(format!(
                    "{key:?} must be an object"
                ))),
                // Absent sections are fine: an empty registry serializes
                // them as {}, and foreign producers may omit one entirely.
                None => Ok(EMPTY_OBJECT.get_or_init(BTreeMap::new)),
            }
        };
        for (name, counter) in object("counters")? {
            let v = counter.as_u64().ok_or_else(|| {
                HistogramError::Malformed(format!(
                    "counter {name:?} must be a non-negative integer"
                ))
            })?;
            registry.set(name, v);
        }
        for (name, histogram) in object("histograms")? {
            registry.put_histogram(name, Histogram::from_json(histogram)?);
        }
        Ok(registry)
    }

    /// Serializes the registry as one JSON object:
    /// `{"counters":{…},"histograms":{…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from(r#"{"counters":{"#);
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(r#""{}":{}"#, crate::json::escape(name), value));
        }
        out.push_str(r#"},"histograms":{"#);
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                r#""{}":{}"#,
                crate::json::escape(name),
                h.to_json()
            ));
        }
        out.push_str("}}");
        out
    }
}

impl AddAssign<&MetricsRegistry> for MetricsRegistry {
    /// `m += &other` is [`MetricsRegistry::merge`].
    fn add_assign(&mut self, rhs: &MetricsRegistry) {
        self.merge(rhs);
    }
}

impl AddAssign for MetricsRegistry {
    fn add_assign(&mut self, rhs: MetricsRegistry) {
        self.merge(&rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(vec![2, 8]);
        for v in [0, 1, 2, 3, 8, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[3, 2, 2]); // <=2, <=8, overflow
        assert_eq!(h.total(), 7);
        assert_eq!(h.to_json(), r#"{"bounds":[2,8],"counts":[3,2,2]}"#);
    }

    #[test]
    fn pow2_bounds() {
        let h = Histogram::pow2(3);
        assert_eq!(h.bounds(), &[1, 2, 4, 8]);
        assert_eq!(h.counts().len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_bounds_rejected() {
        Histogram::new(Vec::new());
    }

    #[test]
    fn try_new_reports_structured_errors() {
        assert_eq!(
            Histogram::try_new(Vec::new()),
            Err(HistogramError::EmptyBounds)
        );
        // Unsorted and duplicate bounds name the offending pair.
        assert_eq!(
            Histogram::try_new(vec![1, 4, 2]),
            Err(HistogramError::NotStrictlyIncreasing {
                index: 2,
                prev: 4,
                next: 2
            })
        );
        assert_eq!(
            Histogram::try_new(vec![3, 3]),
            Err(HistogramError::NotStrictlyIncreasing {
                index: 1,
                prev: 3,
                next: 3
            })
        );
        assert_eq!(
            Histogram::try_from_parts(vec![1, 2], vec![0, 0]),
            Err(HistogramError::CountsLength {
                expected: 3,
                got: 2
            })
        );
        let message = Histogram::try_new(vec![4, 2]).unwrap_err().to_string();
        assert!(message.contains("strictly increasing"), "{message}");
        assert!(message.contains("bounds[0]=4"), "{message}");
    }

    #[test]
    fn histogram_json_round_trip_validates_on_import() {
        let mut h = Histogram::new(vec![2, 8]);
        for v in [1, 5, 100] {
            h.record(v);
        }
        let parsed = crate::json::parse(&h.to_json()).unwrap();
        assert_eq!(Histogram::from_json(&parsed).unwrap(), h);

        // Structured errors, not panics, on bad wire data.
        let bad_bounds = crate::json::parse(r#"{"bounds":[8,2],"counts":[0,0,0]}"#).unwrap();
        assert!(matches!(
            Histogram::from_json(&bad_bounds),
            Err(HistogramError::NotStrictlyIncreasing { .. })
        ));
        let bad_shape = crate::json::parse(r#"{"bounds":[1]}"#).unwrap();
        assert!(matches!(
            Histogram::from_json(&bad_shape),
            Err(HistogramError::Malformed(_))
        ));
        let bad_counts = crate::json::parse(r#"{"bounds":[1],"counts":[0]}"#).unwrap();
        assert!(matches!(
            Histogram::from_json(&bad_counts),
            Err(HistogramError::CountsLength { .. })
        ));
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let h = Histogram::new(vec![1, 2, 4]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.999), None);
    }

    #[test]
    fn quantile_single_bucket() {
        // Every sample in one bucket: every quantile is that bucket's bound.
        let mut h = Histogram::new(vec![10]);
        for v in [1, 2, 3] {
            h.record(v);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(10), "q={q}");
        }
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let mut h = Histogram::new(vec![1, 2, 4, 8]);
        for v in [1u64, 1, 2, 2, 2, 4, 4, 4, 4, 8] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1)); // rank clamps to the 1st sample
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(0.9), Some(4));
        assert_eq!(h.quantile(1.0), Some(8));
    }

    #[test]
    fn quantile_overflow_bucket_is_u64_max() {
        // A u64::MAX sample exceeds every bound; quantiles landing on it can
        // only honestly report "bigger than the last bound".
        let mut h = Histogram::pow2(4);
        h.record(3);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        // All-overflow histogram: every quantile is the overflow marker.
        let mut all_over = Histogram::new(vec![1]);
        all_over.record(u64::MAX);
        assert_eq!(all_over.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_adds_buckets() {
        // Merging two histograms over disjoint value sets equals one
        // histogram over the union.
        let mut whole = Histogram::new(vec![2, 8]);
        let mut left = Histogram::new(vec![2, 8]);
        let mut right = Histogram::new(vec![2, 8]);
        for v in [1u64, 2, 5] {
            whole.record(v);
            left.record(v);
        }
        for v in [3u64, 9, 100] {
            whole.record(v);
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(left.counts(), &[2, 2, 2]);
        // AddAssign forms agree.
        let mut a = Histogram::new(vec![2, 8]);
        a.record(1);
        let mut b = a.clone();
        a += &right;
        b += right.clone();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(vec![1, 2]);
        a.merge(&Histogram::new(vec![1, 4]));
    }

    #[test]
    fn registry_merge_sums_counters_and_unions_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("accesses", 3);
        a.add("misses", 1);
        let mut h = Histogram::new(vec![4]);
        h.record(2);
        a.put_histogram("reuse-distance", h);

        let mut b = MetricsRegistry::new();
        b.add("accesses", 5);
        b.add("evictions", 2);
        let mut h2 = Histogram::new(vec![4]);
        h2.record(9);
        b.put_histogram("reuse-distance", h2);
        b.put_histogram("only-in-b", Histogram::new(vec![1]));

        a.merge(&b);
        assert_eq!(a.counter("accesses"), 8);
        assert_eq!(a.counter("misses"), 1);
        assert_eq!(a.counter("evictions"), 2);
        let merged = a.histogram("reuse-distance").unwrap();
        assert_eq!(merged.counts(), &[1, 1]);
        assert!(a.histogram("only-in-b").is_some());
        // AddAssign form agrees with a fresh merge.
        let mut c = MetricsRegistry::new();
        c.add("accesses", 3);
        c += &b;
        assert_eq!(c.counter("accesses"), 8);
    }

    #[test]
    fn registry_json_round_trip() {
        let mut m = MetricsRegistry::new();
        m.add("requests-total", 7);
        m.add("cache-hits", 3);
        let mut h = Histogram::pow2(4);
        h.record(3);
        h.record(1000);
        m.put_histogram("latency-us/simulate", h);

        let parsed = crate::json::parse(&m.to_json()).unwrap();
        let back = MetricsRegistry::from_json(&parsed).unwrap();
        assert_eq!(back, m);
        // Round-tripped registries merge like the originals.
        let mut merged = back.clone();
        merged.merge(&m);
        assert_eq!(merged.counter("requests-total"), 14);
        assert_eq!(merged.histogram("latency-us/simulate").unwrap().total(), 4);
    }

    #[test]
    fn registry_from_json_ignores_extra_keys_and_tolerates_absent_sections() {
        // The serve /metrics body splices latency_summary after histograms;
        // the parser must skip keys it does not own.
        let doc = crate::json::parse(
            r#"{"counters":{"a":1},"histograms":{},"latency_summary":{"simulate":{"count":1}}}"#,
        )
        .unwrap();
        let m = MetricsRegistry::from_json(&doc).unwrap();
        assert_eq!(m.counter("a"), 1);
        assert_eq!(m.histograms().count(), 0);
        // Entirely absent sections parse as empty.
        let empty = crate::json::parse("{}").unwrap();
        assert_eq!(
            MetricsRegistry::from_json(&empty).unwrap(),
            MetricsRegistry::new()
        );
    }

    #[test]
    fn registry_from_json_rejects_malformed_documents() {
        for (doc, what) in [
            (r#"{"counters":[]}"#, "object"),
            (r#"{"counters":{"a":-1}}"#, "non-negative"),
            (r#"{"counters":{"a":1.5}}"#, "non-negative"),
            (
                r#"{"histograms":{"h":{"bounds":[2,1],"counts":[0,0,0]}}}"#,
                "",
            ),
        ] {
            let parsed = crate::json::parse(doc).unwrap();
            let err = MetricsRegistry::from_json(&parsed).unwrap_err();
            assert!(err.to_string().contains(what), "{doc} -> {err}");
        }
    }

    #[test]
    fn registry_counters() {
        let mut m = MetricsRegistry::new();
        m.add("a", 1);
        m.add("a", 2);
        m.set("b", 7);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("b"), 7);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.counters().count(), 2);
    }

    #[test]
    fn registry_json_is_deterministic() {
        let mut m = MetricsRegistry::new();
        m.add("z", 1);
        m.add("a", 2);
        m.put_histogram("h", Histogram::new(vec![1]));
        assert_eq!(
            m.to_json(),
            r#"{"counters":{"a":2,"z":1},"histograms":{"h":{"bounds":[1],"counts":[0,0]}}}"#
        );
    }
}
