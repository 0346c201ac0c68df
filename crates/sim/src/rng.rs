//! Deterministic random streams and the distributions the models need.
//!
//! Only `rand`'s uniform primitives are used; every other distribution
//! (exponential, normal, log-normal, Pareto) is derived here so the workspace
//! needs no extra crates and the sampling algorithms are pinned — a library
//! upgrade can never silently change experiment outputs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A seeded random stream. One per simulation; components that need their own
/// independent stream should [`fork`](SimRng::fork) it.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent stream. The child's seed is drawn from this
    /// stream, so fork order matters — fork everything up front in model
    /// construction, not lazily.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`. `lo == hi` returns `lo`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform range inverted: [{lo}, {hi})");
        if lo == hi {
            lo
        } else {
            self.inner.gen_range(lo..hi)
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty, matching `gen_range`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0) requested");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Exponentially distributed duration with the given mean (in seconds).
    /// Mean ≤ 0 returns zero.
    pub fn exp(&mut self, mean_secs: f64) -> SimDuration {
        if mean_secs <= 0.0 {
            return SimDuration::ZERO;
        }
        // Inverse CDF; 1-u avoids ln(0).
        let u = self.f64();
        SimDuration::from_secs_f64(-mean_secs * (1.0 - u).ln())
    }

    /// Standard normal via Box–Muller (one value per call; we do not cache the
    /// pair so the stream stays a simple function of draw count).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Normally distributed duration, truncated below at zero.
    pub fn normal_duration(&mut self, mean_secs: f64, std_dev_secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.normal(mean_secs, std_dev_secs))
    }

    /// Log-normal with given median and sigma (of the underlying normal);
    /// a good model for long-tailed middleware latencies.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.std_normal()).exp()
    }

    /// Log-normally distributed duration.
    pub fn log_normal_duration(&mut self, median_secs: f64, sigma: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.log_normal(median_secs, sigma))
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Raw `u64` (for deriving sub-seeds outside the sim).
    pub fn u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn determinism_and_fork_independence() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        let xs: Vec<f64> = (0..10).map(|_| a.f64()).collect();
        let ys: Vec<f64> = (0..10).map(|_| b.f64()).collect();
        assert_eq!(xs, ys);

        let mut parent = SimRng::new(1);
        let mut child = parent.fork();
        let px: Vec<f64> = (0..10).map(|_| parent.f64()).collect();
        let cx: Vec<f64> = (0..10).map(|_| child.f64()).collect();
        assert_ne!(px, cx);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::new(5);
        for _ in 0..1_000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(4.0, 4.0), 4.0);
    }

    #[test]
    fn exp_mean_is_right() {
        let mut rng = SimRng::new(7);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exp(2.0).as_secs_f64()).collect();
        let (mean, _) = sample_stats(&samples);
        assert!((mean - 2.0).abs() < 0.05, "exp mean {mean} far from 2.0");
        assert_eq!(rng.exp(0.0), SimDuration::ZERO);
        assert_eq!(rng.exp(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn normal_moments_are_right() {
        let mut rng = SimRng::new(11);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.normal(10.0, 3.0)).collect();
        let (mean, sd) = sample_stats(&samples);
        assert!((mean - 10.0).abs() < 0.1, "normal mean {mean}");
        assert!((sd - 3.0).abs() < 0.1, "normal sd {sd}");
    }

    #[test]
    fn normal_duration_truncates_at_zero() {
        let mut rng = SimRng::new(13);
        for _ in 0..1_000 {
            // Mean 0, huge sd: about half of raw draws are negative.
            let d = rng.normal_duration(0.0, 10.0);
            assert!(d.as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn log_normal_median_is_right() {
        let mut rng = SimRng::new(17);
        let mut samples: Vec<f64> = (0..20_001).map(|_| rng.log_normal(5.0, 0.5)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        assert!((median - 5.0).abs() < 0.2, "log-normal median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::new(23);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!(
            (2_700..3_300).contains(&hits),
            "chance(0.3) hit {hits}/10000"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(29);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "100-element shuffle left input untouched");
    }

    #[test]
    fn choose_picks_members() {
        let mut rng = SimRng::new(31);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }
}
