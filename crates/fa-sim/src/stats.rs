//! Measurement primitives used to produce the paper's figures.
//!
//! The evaluation needs time series of functional-unit utilization and
//! power (Figure 15); they are built by the bucketed timelines in this
//! module. Busy time and utilization are kept by each
//! [`FifoServer`](crate::resource::FifoServer).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A `(time, value)` series on a fixed grid, built by [`bucketed`]; used
/// for the function-unit-utilization and power timelines of Figure 15.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// All points, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no samples.
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
