//! Named counters, gauges and histograms shared across the broker stack.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use cg_sim::{OnlineStats, SampleSet};

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, SampleSet>,
}

/// A process-wide metrics registry. Clones share storage; all operations
/// are `&self` and thread-safe, so simulation code and the real console
/// threads can feed the same registry.
///
/// Histograms retain raw samples ([`SampleSet`]) so percentiles stay exact;
/// [`MetricsRegistry::histogram_stats`] condenses one to moment statistics
/// ([`OnlineStats`]) for cheap reporting.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds 1 to counter `name` (creating it at zero).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let mut reg = self.lock();
        // Only a counter's first touch allocates its key.
        if let Some(c) = reg.counters.get_mut(name) {
            *c += delta;
        } else {
            reg.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut reg = self.lock();
        if let Some(g) = reg.gauges.get_mut(name) {
            *g = value;
        } else {
            reg.gauges.insert(name.to_string(), value);
        }
    }

    /// Last value set on gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut reg = self.lock();
        if let Some(h) = reg.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = SampleSet::default();
            h.record(value);
            reg.histograms.insert(name.to_string(), h);
        }
    }

    /// Moment statistics of histogram `name`, `None` when it has no samples.
    pub fn histogram_stats(&self, name: &str) -> Option<OnlineStats> {
        let inner = self.lock();
        let set = inner.histograms.get(name)?;
        if set.is_empty() {
            return None;
        }
        let mut stats = OnlineStats::new();
        for &x in set.samples() {
            stats.record(x);
        }
        Some(stats)
    }

    /// The `p`-th percentile of histogram `name` (`p` in 0..=100).
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        self.lock().histograms.get(name)?.percentile(p)
    }

    /// Names of all counters touched so far.
    pub fn counter_names(&self) -> Vec<String> {
        self.lock().counters.keys().cloned().collect()
    }

    /// A human-readable dump of everything in the registry, sorted by name.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let inner = self.lock();
        let mut out = String::new();
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in &inner.gauges {
            let _ = writeln!(out, "gauge {name} = {v}");
        }
        for (name, set) in &inner.histograms {
            let _ = writeln!(out, "histogram {name}: {}", set.summary());
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histograms_expose_moments_and_percentiles() {
        let m = MetricsRegistry::new();
        assert!(m.histogram_stats("h").is_none());
        for x in [1.0, 2.0, 3.0, 4.0] {
            m.observe("h", x);
        }
        let stats = m.histogram_stats("h").unwrap();
        assert_eq!(stats.count(), 4);
        assert!((stats.mean() - 2.5).abs() < 1e-12);
        assert_eq!(m.percentile("h", 0.0), Some(1.0));
        assert_eq!(m.percentile("h", 100.0), Some(4.0));
    }

    #[test]
    fn clones_share_storage() {
        let m = MetricsRegistry::new();
        let n = m.clone();
        n.inc("shared");
        assert_eq!(m.counter("shared"), 1);
    }

    #[test]
    fn summary_lists_everything() {
        let m = MetricsRegistry::new();
        m.inc("a.count");
        m.set_gauge("b.gauge", 7.0);
        m.observe("c.hist", 1.0);
        let s = m.summary();
        assert!(s.contains("counter a.count = 1"));
        assert!(s.contains("gauge b.gauge = 7"));
        assert!(s.contains("histogram c.hist"));
    }
}
