//! Job arrival processes: the background load the broker schedules against.

use cg_jdl::JobDescription;
use cg_sim::{SimDuration, SimRng, SimTime};

/// Shape of one synthetic job population.
#[derive(Debug, Clone)]
pub struct JobMix {
    /// Fraction of arrivals that are interactive (the rest are batch).
    pub interactive_fraction: f64,
    /// Fraction of interactive jobs requesting shared machine access.
    pub shared_fraction: f64,
    /// PerformanceLoss values drawn for shared jobs.
    pub performance_losses: Vec<u8>,
    /// Mean batch runtime, seconds (exponential).
    pub batch_runtime_mean_s: f64,
    /// Mean interactive session length, seconds (log-normal median).
    pub interactive_runtime_median_s: f64,
    /// User population size.
    pub users: u32,
}

impl Default for JobMix {
    fn default() -> Self {
        JobMix {
            interactive_fraction: 0.25,
            shared_fraction: 0.7,
            performance_losses: vec![5, 10, 15, 25],
            batch_runtime_mean_s: 3_600.0,
            interactive_runtime_median_s: 600.0,
            users: 8,
        }
    }
}

/// One synthetic arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the job is submitted.
    pub at: SimTime,
    /// The job description.
    pub job: JobDescription,
    /// Its natural runtime once started.
    pub runtime: SimDuration,
}

/// Generates a Poisson arrival stream over `horizon` with mean inter-arrival
/// `mean_interarrival`.
pub fn poisson_arrivals(
    rng: &mut SimRng,
    mix: &JobMix,
    mean_interarrival: SimDuration,
    horizon: SimTime,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = SimTime::ZERO + rng.exp(mean_interarrival.as_secs_f64());
    let mut n = 0u64;
    while t < horizon {
        out.push(make_arrival(rng, mix, t, n));
        n += 1;
        t += rng.exp(mean_interarrival.as_secs_f64());
    }
    out
}

fn make_arrival(rng: &mut SimRng, mix: &JobMix, at: SimTime, n: u64) -> Arrival {
    let interactive = rng.chance(mix.interactive_fraction);
    let user = format!("user{}", rng.index(mix.users.max(1) as usize));
    let (jdl, runtime) = if interactive {
        let shared = rng.chance(mix.shared_fraction);
        let pl = *rng.choose(&mix.performance_losses);
        let runtime = rng.log_normal_duration(mix.interactive_runtime_median_s, 0.6);
        let src = format!(
            r#"
            Executable = "interactive_app_{n}";
            JobType = "interactive";
            MachineAccess = "{}";
            PerformanceLoss = {};
            StreamingMode = "{}";
            User = "{user}";
            "#,
            if shared { "shared" } else { "exclusive" },
            if shared { pl } else { 0 },
            if rng.chance(0.5) { "reliable" } else { "fast" },
        );
        (src, runtime)
    } else {
        let runtime = rng.exp(mix.batch_runtime_mean_s);
        let src = format!(
            r#"
            Executable = "batch_app_{n}";
            JobType = "batch";
            User = "{user}";
            EstimatedRuntime = {};
            "#,
            runtime.as_secs_f64().max(1.0) as u64
        );
        (src, runtime)
    };
    Arrival {
        at,
        job: JobDescription::parse(&jdl).expect("generated JDL is valid"),
        runtime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_jdl::{Interactivity, MachineAccess};

    #[test]
    fn arrivals_are_ordered_and_bounded() {
        let mut rng = SimRng::new(1);
        let arrivals = poisson_arrivals(
            &mut rng,
            &JobMix::default(),
            SimDuration::from_secs(60),
            SimTime::from_secs(86_400),
        );
        assert!(arrivals.len() > 1_000, "a day at 1/min ≈ 1 440 jobs");
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(arrivals.iter().all(|a| a.at < SimTime::from_secs(86_400)));
    }

    #[test]
    fn mix_fractions_are_respected() {
        let mut rng = SimRng::new(2);
        let mix = JobMix {
            interactive_fraction: 0.25,
            ..JobMix::default()
        };
        let arrivals = poisson_arrivals(
            &mut rng,
            &mix,
            SimDuration::from_secs(30),
            SimTime::from_secs(86_400),
        );
        let interactive = arrivals
            .iter()
            .filter(|a| a.job.interactivity == Interactivity::Interactive)
            .count() as f64
            / arrivals.len() as f64;
        assert!((0.20..0.30).contains(&interactive), "{interactive}");
    }

    #[test]
    fn generated_jobs_are_valid_and_typed() {
        let mut rng = SimRng::new(3);
        let arrivals = poisson_arrivals(
            &mut rng,
            &JobMix::default(),
            SimDuration::from_secs(120),
            SimTime::from_secs(20_000),
        );
        for a in &arrivals {
            assert!(!a.job.executable.is_empty());
            assert!(a.job.user.starts_with("user"));
            if a.job.machine_access == MachineAccess::Shared {
                assert!(a.job.performance_loss % 5 == 0);
            }
        }
    }

    #[test]
    fn all_interactive_mix() {
        let mut rng = SimRng::new(4);
        let mix = JobMix {
            interactive_fraction: 1.0,
            shared_fraction: 1.0,
            ..JobMix::default()
        };
        let arrivals = poisson_arrivals(
            &mut rng,
            &mix,
            SimDuration::from_secs(60),
            SimTime::from_secs(6_000),
        );
        assert!(!arrivals.is_empty());
        assert!(arrivals
            .iter()
            .all(|a| a.job.interactivity == Interactivity::Interactive
                && a.job.machine_access == MachineAccess::Shared));
    }
}
