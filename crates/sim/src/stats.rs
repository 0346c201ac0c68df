//! Measurement collection: online moments, sample sets with percentiles,
//! histograms, and time series — everything the experiment harnesses report.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance/min/max via Welford's algorithm. O(1) memory,
/// suitable for counters that live for millions of events.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator (parallel reduction of Welford states).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Keeps every sample; supports exact percentiles. Use for experiment outputs
/// (thousands of points), not hot counters.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// An empty set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Records a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// Exact percentile by nearest-rank (`p` in `[0, 100]`). `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).floor() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Minimum. `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().min_by(f64::total_cmp)
    }

    /// Maximum. `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().max_by(f64::total_cmp)
    }

    /// One-line summary used by the harness tables.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={:.6} sd={:.6} min={:.6} p50={:.6} p95={:.6} max={:.6}",
            self.len(),
            self.mean(),
            self.std_dev(),
            self.min().unwrap(),
            self.median().unwrap(),
            self.percentile(95.0).unwrap(),
            self.max().unwrap(),
        )
    }
}

/// A `(time, value)` series, e.g. priority trajectories or queue lengths.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point at simulated time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        self.points.push((t.as_secs_f64(), value));
    }

    /// The collected points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Writes the series as CSV rows (`t,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t,value\n");
        for (t, v) in &self.points {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty_is_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn online_stats_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.std_dev() - whole.std_dev()).abs() < 1e-9);

        let mut empty = OnlineStats::new();
        empty.merge(&whole);
        assert!((empty.mean() - whole.mean()).abs() < 1e-12);
    }

    #[test]
    fn sample_set_percentiles() {
        let mut s = SampleSet::new();
        for x in 1..=100 {
            s.record(x as f64);
        }
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn sample_set_empty() {
        let s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.summary(), "n=0");
    }

    #[test]
    fn time_series_weighted_mean() {
        let mut ts = TimeSeries::new();
        ts.record(SimTime::from_secs(0), 1.0);
        ts.record(SimTime::from_secs(10), 3.0);
        ts.record(SimTime::from_secs(20), 0.0);
        assert!(ts.to_csv().starts_with("t,value\n0,1\n"));
    }
}
