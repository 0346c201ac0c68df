//! Adaptive degree-of-multiprogramming control — the §7 future-work item:
//! "control of the degree of multiprogramming, so as to dynamically adapt
//! this to the behavior of different types of interactive applications".
//!
//! The controller watches an interactive application's *duty cycle* (the
//! fraction of wall time it actually computes, vs waiting on I/O or the
//! user) through an exponentially weighted moving average, and recommends
//! how many interactive slots the node can carry: a visualization that
//! thinks for 50 ms between minutes of idling can share with many peers; a
//! steering-loop burner cannot.

/// Controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Hard cap on the degree (the paper's base system uses 1).
    pub max_degree: usize,
    /// EWMA smoothing factor per observation (0 < α ≤ 1).
    pub alpha: f64,
    /// CPU headroom kept free for latency (fraction of one CPU).
    pub headroom: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            max_degree: 4,
            alpha: 0.2,
            headroom: 0.1,
        }
    }
}

/// Watches duty-cycle observations and recommends an interactive degree.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    /// EWMA of the duty cycle; `None` until the first observation.
    duty: Option<f64>,
    observations: u64,
}

impl AdaptiveController {
    /// A fresh controller.
    pub fn new(config: AdaptiveConfig) -> Self {
        assert!(config.max_degree >= 1, "degree cap below 1");
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha out of (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&config.headroom),
            "headroom out of [0, 1)"
        );
        AdaptiveController {
            config,
            duty: None,
            observations: 0,
        }
    }

    /// Feeds one observation: over some window the app computed for
    /// `cpu_time` out of `wall_time`. Windows with no wall time are ignored.
    pub fn observe(&mut self, cpu_time_s: f64, wall_time_s: f64) {
        if wall_time_s <= 0.0 {
            return;
        }
        let duty = (cpu_time_s / wall_time_s).clamp(0.0, 1.0);
        self.observations += 1;
        self.duty = Some(match self.duty {
            None => duty,
            Some(prev) => prev + self.config.alpha * (duty - prev),
        });
    }

    /// Current smoothed duty cycle (`None` before any observation).
    pub fn duty_cycle(&self) -> Option<f64> {
        self.duty
    }

    /// Observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Recommended number of interactive slots for a node hosting apps with
    /// this duty cycle: as many as fit in one CPU minus headroom, at least 1,
    /// capped. Before any observation the safe degree is 1.
    pub fn recommended_degree(&self) -> usize {
        let Some(duty) = self.duty else { return 1 };
        if duty <= 0.0 {
            return self.config.max_degree;
        }
        let usable = 1.0 - self.config.headroom;
        let fit = (usable / duty).floor() as usize;
        fit.clamp(1, self.config.max_degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_apps_keep_degree_one() {
        let mut c = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..50 {
            c.observe(0.95, 1.0);
        }
        assert_eq!(c.recommended_degree(), 1);
        assert!((c.duty_cycle().unwrap() - 0.95).abs() < 1e-9);
    }

    #[test]
    fn io_bound_apps_allow_higher_degrees() {
        let mut c = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..50 {
            c.observe(0.2, 1.0); // 20 % duty: 4 fit in 0.9 usable CPU
        }
        assert_eq!(c.recommended_degree(), 4);
    }

    #[test]
    fn degree_is_capped() {
        let mut c = AdaptiveController::new(AdaptiveConfig {
            max_degree: 3,
            ..AdaptiveConfig::default()
        });
        for _ in 0..50 {
            c.observe(0.01, 1.0);
        }
        assert_eq!(c.recommended_degree(), 3);
    }

    #[test]
    fn unknown_behaviour_is_conservative() {
        let c = AdaptiveController::new(AdaptiveConfig::default());
        assert_eq!(c.recommended_degree(), 1, "no data ⇒ the paper's degree");
        assert_eq!(c.duty_cycle(), None);
    }

    #[test]
    fn ewma_tracks_behaviour_changes() {
        let mut c = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..50 {
            c.observe(0.2, 1.0);
        }
        assert!(c.recommended_degree() > 1);
        // The app enters a compute phase; the controller backs off.
        for _ in 0..50 {
            c.observe(1.0, 1.0);
        }
        assert_eq!(c.recommended_degree(), 1);
    }

    #[test]
    fn zero_wall_windows_ignored() {
        let mut c = AdaptiveController::new(AdaptiveConfig::default());
        c.observe(1.0, 0.0);
        assert_eq!(c.observations(), 0);
        assert_eq!(c.duty_cycle(), None);
    }

    #[test]
    fn figure8_app_profile_is_nearly_pure_cpu() {
        // The §6.3 loop app: 0.921 s CPU per 0.927 s wall → duty ≈ 0.993.
        let mut c = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..20 {
            c.observe(0.921, 0.921 + 0.00606);
        }
        assert_eq!(
            c.recommended_degree(),
            1,
            "the paper's benchmark app must not be co-scheduled"
        );
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn bad_alpha_rejected() {
        AdaptiveController::new(AdaptiveConfig {
            alpha: 0.0,
            ..AdaptiveConfig::default()
        });
    }
}
