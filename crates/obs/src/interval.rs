//! Windowed interval statistics: miss rate per N-access window.
//!
//! Aggregate miss rates hide phase behaviour — a workload that thrashes for
//! its first million references and then settles looks identical to one that
//! misses uniformly. An [`IntervalSeries`] slices the run into fixed-size
//! windows so the phase structure (the thing dynamic exclusion *learns*)
//! becomes visible and plottable.

/// One completed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalPoint {
    /// Zero-based window index.
    pub index: u64,
    /// Index of the first access in the window (`index * window`).
    pub start: u64,
    /// Accesses observed in the window (equals the window size except for a
    /// trailing partial window).
    pub accesses: u64,
    /// Misses observed in the window.
    pub misses: u64,
}

impl IntervalPoint {
    /// Window miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Accumulates per-window hit/miss counts as accesses stream by.
///
/// # Examples
///
/// ```
/// use dynex_obs::IntervalSeries;
///
/// let mut s = IntervalSeries::new(2);
/// s.record(true);  // miss
/// s.record(false); // hit — window 0 complete
/// s.record(true);
/// let points = s.finish();
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[0].miss_rate(), 0.5);
/// assert_eq!(points[1].accesses, 1); // trailing partial window
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSeries {
    window: u64,
    points: Vec<IntervalPoint>,
    cur_accesses: u64,
    cur_misses: u64,
    total_accesses: u64,
}

impl IntervalSeries {
    /// Creates a series with `window` accesses per interval.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: u64) -> IntervalSeries {
        assert!(window > 0, "interval window must be at least 1 access");
        IntervalSeries {
            window,
            points: Vec::new(),
            cur_accesses: 0,
            cur_misses: 0,
            total_accesses: 0,
        }
    }

    /// The configured window size.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Records one access (`miss == true` for a miss).
    pub fn record(&mut self, miss: bool) {
        self.cur_accesses += 1;
        self.total_accesses += 1;
        if miss {
            self.cur_misses += 1;
        }
        if self.cur_accesses == self.window {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.cur_accesses == 0 {
            return;
        }
        let index = self.points.len() as u64;
        self.points.push(IntervalPoint {
            index,
            start: index * self.window,
            accesses: self.cur_accesses,
            misses: self.cur_misses,
        });
        self.cur_accesses = 0;
        self.cur_misses = 0;
    }

    /// Completed windows so far (excludes the in-progress one).
    pub fn points(&self) -> &[IntervalPoint] {
        &self.points
    }

    /// Total accesses recorded, including the in-progress window.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Flushes any partial trailing window and returns all points.
    pub fn finish(mut self) -> Vec<IntervalPoint> {
        self.flush();
        self.points
    }

    /// Serializes completed windows (plus the partial trailing one) as CSV:
    /// `interval,start,accesses,misses,miss_rate`.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<IntervalPoint> = self.points.clone();
        if self.cur_accesses > 0 {
            let index = rows.len() as u64;
            rows.push(IntervalPoint {
                index,
                start: index * self.window,
                accesses: self.cur_accesses,
                misses: self.cur_misses,
            });
        }
        let mut out = String::from("interval,start,accesses,misses,miss_rate\n");
        for p in rows {
            out.push_str(&format!(
                "{},{},{},{},{:.6}\n",
                p.index,
                p.start,
                p.accesses,
                p.misses,
                p.miss_rate()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fill_and_roll() {
        let mut s = IntervalSeries::new(3);
        for i in 0..7 {
            s.record(i % 2 == 0);
        }
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.total_accesses(), 7);
        let p = s.points()[0];
        assert_eq!((p.index, p.start, p.accesses, p.misses), (0, 0, 3, 2));
        let all = s.finish();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].accesses, 1);
    }

    #[test]
    fn exact_multiple_has_no_partial_window() {
        let mut s = IntervalSeries::new(2);
        for _ in 0..4 {
            s.record(false);
        }
        assert_eq!(s.finish().len(), 2);
    }

    #[test]
    fn csv_includes_partial_window() {
        let mut s = IntervalSeries::new(2);
        s.record(true);
        s.record(true);
        s.record(false);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "interval,start,accesses,misses,miss_rate");
        assert_eq!(lines[1], "0,0,2,2,1.000000");
        assert_eq!(lines[2], "1,2,1,0,0.000000");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        IntervalSeries::new(0);
    }
}
