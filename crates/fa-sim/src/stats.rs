//! Measurement primitives used to produce the paper's figures.
//!
//! The evaluation needs per-component busy-time (utilization) and time
//! series of utilization and power. These are collected with the busy-time
//! tracker and the bucketed timelines in this module.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Tracks how long a component spends busy, to compute utilization as
/// busy-time / wall-time — exactly how the paper reports LWP utilization
/// (Figure 14) and function-unit utilization (Figure 15a).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationTracker {
    busy: SimDuration,
}

impl UtilizationTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        UtilizationTracker::default()
    }

    /// Adds a busy span directly (for components modelled analytically).
    pub fn add_busy(&mut self, span: SimDuration) {
        self.busy += span;
    }

    /// Total accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy fraction in `[0, 1]` over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let wall = now.saturating_since(SimTime::ZERO);
        if wall.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / wall.as_secs_f64()).clamp(0.0, 1.0)
    }
}

/// A `(time, value)` series sampled at irregular instants; used for the
/// function-unit-utilization and power timelines of Figure 15.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Out-of-order samples are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last recorded sample.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series sample out of order");
        }
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Chooses a timeline bucket that yields a few hundred samples over
/// `[0, horizon]` (never finer than 1 µs) — the Figure 15 sampling grid.
pub fn timeline_bucket(horizon: SimTime) -> SimDuration {
    let target_samples = 400u64;
    let ns = (horizon.as_ns() / target_samples).max(1_000);
    SimDuration::from_ns(ns)
}

/// Buckets weighted intervals onto a fixed grid: one sample at every
/// `bucket` boundary in `[0, horizon]`, each `floor` plus, for every
/// interval `(start, end, weight)`, `weight` times the fraction of the
/// bucket the interval covers. This is how the Figure 15 views are built:
/// busy functional units from compute intervals (floor 0) and power from
/// activity intervals (floor = idle power). Empty when `bucket` is zero.
///
/// Each interval visits only the buckets it overlaps, so the cost is
/// O(buckets + overlapped buckets) rather than O(buckets × intervals).
/// Every bucket still receives the same terms (`weight * overlap_s /
/// bucket_s`) in interval order that a scan of every interval per bucket
/// would add, so the sums are bit-identical to that scan. Empty or
/// inverted intervals contribute nothing.
pub fn bucketed(
    horizon: SimTime,
    bucket: SimDuration,
    floor: f64,
    intervals: impl IntoIterator<Item = (SimTime, SimTime, f64)>,
) -> TimeSeries {
    if bucket.is_zero() {
        return TimeSeries::new();
    }
    let width = bucket.as_ns();
    let last = horizon.as_ns() / width;
    let bucket_s = bucket.as_secs_f64();
    let mut sums = vec![floor; last as usize + 1];
    for (start, end, weight) in intervals {
        let (start, end) = (start.as_ns(), end.as_ns());
        if end <= start {
            continue;
        }
        for k in start / width..=((end - 1) / width).min(last) {
            let lo = start.max(k * width);
            let hi = end.min((k * width).saturating_add(width));
            sums[k as usize] += weight * SimDuration::from_ns(hi - lo).as_secs_f64() / bucket_s;
        }
    }
    TimeSeries {
        points: sums
            .into_iter()
            .enumerate()
            .map(|(k, v)| (SimTime::from_ns(k as u64 * width), v))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = UtilizationTracker::new();
        u.add_busy(SimDuration::from_ns(50));
        u.add_busy(SimDuration::from_ns(20));
        assert_eq!(u.busy_time().as_ns(), 70);
        assert!((u.utilization(SimTime::from_ns(100)) - 0.7).abs() < 1e-9);
        assert_eq!(u.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_series_rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_ns(10), 1.0);
        ts.record(SimTime::from_ns(5), 2.0);
    }

    #[test]
    fn bucketed_spreads_intervals_over_the_buckets_they_cover() {
        let series = bucketed(
            SimTime::from_ns(300),
            SimDuration::from_ns(100),
            1.0,
            [
                (SimTime::from_ns(50), SimTime::from_ns(150), 2.0),
                (SimTime::from_ns(250), SimTime::from_ns(900), 4.0),
                (SimTime::from_ns(120), SimTime::from_ns(120), 8.0),
            ],
        );
        let points: Vec<(u64, f64)> = series
            .points()
            .iter()
            .map(|&(t, v)| (t.as_ns(), v))
            .collect();
        assert_eq!(points, [(0, 2.0), (100, 2.0), (200, 3.0), (300, 5.0)]);
        assert!(bucketed(SimTime::from_ns(300), SimDuration::ZERO, 1.0, []).is_empty());
        assert_eq!(
            bucketed(SimTime::ZERO, SimDuration::from_ns(100), 1.5, []).points(),
            [(SimTime::ZERO, 1.5)]
        );
    }

    #[test]
    fn default_bucket_yields_a_few_hundred_samples() {
        assert_eq!(timeline_bucket(SimTime::from_ms(4)).as_ns(), 10_000);
        assert_eq!(timeline_bucket(SimTime::from_us(10)).as_ns(), 1_000);
    }
}
