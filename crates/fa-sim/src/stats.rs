//! Measurement primitives used to produce the paper's figures.
//!
//! The evaluation needs throughput, min/avg/max latency, CDFs, per-component
//! busy-time (utilization), and time series of utilization and power. These
//! are collected with the small set of accumulators in this module.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Running scalar statistics (count, mean, min, max, variance) without
/// storing samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one sample using Welford's algorithm.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance, or 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A fixed-bucket histogram over `f64` samples, retaining the raw samples so
/// exact percentiles and CDFs can be extracted (sample counts in this
/// project are small: thousands, not billions).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in histogram"));
            self.sorted = true;
        }
        &self.samples
    }

    /// Returns the `q`-quantile (`0.0..=1.0`) by nearest-rank, or `None`
    /// when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let sorted = self.sorted_samples();
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(sorted[idx])
    }

    /// Returns `(value, cumulative_fraction)` pairs forming the empirical
    /// CDF, one point per sample.
    pub fn cdf(&mut self) -> Vec<(f64, f64)> {
        let n = self.samples.len();
        self.sorted_samples()
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Mean of all samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }
}

/// Tracks how long a component spends busy, to compute utilization as
/// busy-time / wall-time — exactly how the paper reports LWP utilization
/// (Figure 14) and function-unit utilization (Figure 15a).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationTracker {
    busy: SimDuration,
    busy_since: Option<SimTime>,
    intervals: u64,
}

impl UtilizationTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        UtilizationTracker::default()
    }

    /// Marks the component busy starting at `now`. Nested calls are ignored.
    pub fn begin_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the component idle at `now`, accumulating the elapsed busy span.
    pub fn end_busy(&mut self, now: SimTime) {
        if let Some(start) = self.busy_since.take() {
            self.busy += now.saturating_since(start);
            self.intervals += 1;
        }
    }

    /// Adds a busy span directly (for components modelled analytically).
    pub fn add_busy(&mut self, span: SimDuration) {
        self.busy += span;
        self.intervals += 1;
    }

    /// Returns true if currently marked busy.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Total accumulated busy time, counting an open interval up to `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(start) => self.busy + now.saturating_since(start),
            None => self.busy,
        }
    }

    /// Busy fraction in `[0, 1]` over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let wall = now.saturating_since(SimTime::ZERO);
        if wall.is_zero() {
            return 0.0;
        }
        (self.busy_time(now).as_secs_f64() / wall.as_secs_f64()).clamp(0.0, 1.0)
    }

    /// Number of closed busy intervals.
    pub fn intervals(&self) -> u64 {
        self.intervals
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

    /// Resamples the series onto a fixed grid of `bucket` width using the
    /// last-value-carried-forward rule; returns `(bucket_start, value)`.
    pub fn resample(&self, bucket: SimDuration) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || bucket.is_zero() {
            return Vec::new();
        }
        let end = self.points.last().expect("non-empty").0;
        let mut out = Vec::new();
        let mut cursor = SimTime::ZERO;
        let mut idx = 0usize;
        let mut last_value = 0.0;
        while cursor <= end {
            while idx < self.points.len() && self.points[idx].0 <= cursor {
                last_value = self.points[idx].1;
                idx += 1;
            }
            out.push((cursor, last_value));
            cursor += bucket;
        }
        out
    }

    /// Time-weighted mean of the series over its span (zero when empty or a
    /// single point).
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map(|&(_, v)| v).unwrap_or(0.0);
        }
        let mut area = 0.0;
        for pair in self.points.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, _) = pair[1];
            area += v0 * (t1.saturating_since(t0)).as_secs_f64();
        }
        let span = self
            .points
            .last()
            .expect("non-empty")
            .0
            .saturating_since(self.points[0].0)
            .as_secs_f64();
        if span == 0.0 {
            0.0
        } else {
            area / span
        }
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
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn running_stats_mean_min_max() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 8.0);
        assert!((s.variance() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_quantiles_and_cdf() {
        let mut h = Histogram::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(x);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        assert_eq!(h.quantile(0.5), Some(3.0));
        let cdf = h.cdf();
        assert_eq!(cdf.first(), Some(&(1.0, 0.2)));
        assert_eq!(cdf.last(), Some(&(5.0, 1.0)));
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn empty_histogram_behaves() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert!(h.cdf().is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = UtilizationTracker::new();
        u.begin_busy(SimTime::from_ns(0));
        u.end_busy(SimTime::from_ns(50));
        u.begin_busy(SimTime::from_ns(80));
        u.end_busy(SimTime::from_ns(100));
        assert_eq!(u.busy_time(SimTime::from_ns(100)).as_ns(), 70);
        assert!((u.utilization(SimTime::from_ns(100)) - 0.7).abs() < 1e-9);
        assert_eq!(u.intervals(), 2);
    }

    #[test]
    fn utilization_counts_open_interval() {
        let mut u = UtilizationTracker::new();
        u.begin_busy(SimTime::from_ns(10));
        assert!(u.is_busy());
        assert_eq!(u.busy_time(SimTime::from_ns(30)).as_ns(), 20);
    }

    #[test]
    fn nested_begin_busy_is_idempotent() {
        let mut u = UtilizationTracker::new();
        u.begin_busy(SimTime::from_ns(0));
        u.begin_busy(SimTime::from_ns(5));
        u.end_busy(SimTime::from_ns(10));
        assert_eq!(u.busy_time(SimTime::from_ns(10)).as_ns(), 10);
    }

    #[test]
    fn time_series_resample_and_mean() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_ns(0), 1.0);
        ts.record(SimTime::from_ns(100), 3.0);
        ts.record(SimTime::from_ns(200), 3.0);
        let grid = ts.resample(SimDuration::from_ns(50));
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0].1, 1.0);
        assert_eq!(grid[2].1, 3.0);
        // 1.0 for the first 100 ns, 3.0 for the next 100 ns.
        assert!((ts.time_weighted_mean() - 2.0).abs() < 1e-9);
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
