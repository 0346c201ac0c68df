//! The §6.2 test suite: coordinated read/write sequences.
//!
//! "A client and a server process were created in the submission and
//! execution machines, respectively. The client and server executed a
//! coordinated sequence of 1,000 read/write operations to their stdin and
//! stdout. … Data transferred in each read/write operation varied from 10
//! bytes to 10K, and we measured the round trip incurred by each sequence."

use cg_console::MethodCosts;
use cg_net::LinkProfile;
use cg_sim::{SampleSet, SimRng};

/// Parameters of one pingpong experiment.
#[derive(Debug, Clone)]
pub struct PingPongSpec {
    /// Sequences per run (paper: 1 000).
    pub sequences: u32,
    /// Payload per write, bytes.
    pub payload: u64,
}

impl PingPongSpec {
    /// The paper's run length with a given payload.
    pub fn paper(payload: u64) -> Self {
        PingPongSpec {
            sequences: 1_000,
            payload,
        }
    }

    /// The payload sizes the paper sweeps (10 B – 10 KB).
    pub const PAYLOADS: [u64; 4] = [10, 100, 1_024, 10_240];
}

/// Result of one method × payload × link run.
#[derive(Debug, Clone)]
pub struct PingPongRun {
    /// Method name.
    pub method: String,
    /// Link profile name.
    pub link: String,
    /// Payload size, bytes.
    pub payload: u64,
    /// Per-sequence round-trip times, seconds (the figures' Y values).
    pub samples: SampleSet,
}

impl PingPongRun {
    /// CSV rows `sequence,rtt_seconds` — the figure series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("sequence,rtt_s\n");
        for (i, s) in self.samples.samples().iter().enumerate() {
            out.push_str(&format!("{i},{s}\n"));
        }
        out
    }
}

/// Runs the coordinated sequence experiment for one method.
pub fn run_pingpong(
    method: &MethodCosts,
    link: &LinkProfile,
    spec: &PingPongSpec,
    rng: &mut SimRng,
) -> PingPongRun {
    let mut samples = SampleSet::new();
    for _ in 0..spec.sequences {
        samples.record(method.sequence_rtt(rng, link, spec.payload).as_secs_f64());
    }
    PingPongRun {
        method: method.name.clone(),
        link: link.name.clone(),
        payload: spec.payload,
        samples,
    }
}

/// Runs the full §6.2 grid: every method × every payload on one link.
pub fn run_suite(
    methods: &[MethodCosts],
    link: &LinkProfile,
    sequences: u32,
    seed: u64,
) -> Vec<PingPongRun> {
    let mut out = Vec::new();
    for method in methods {
        for &payload in &PingPongSpec::PAYLOADS {
            let mut rng = SimRng::new(seed ^ payload ^ (method.name.len() as u64) << 32);
            out.push(run_pingpong(
                method,
                link,
                &PingPongSpec { sequences, payload },
                &mut rng,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_requested_samples() {
        let mut rng = SimRng::new(1);
        let run = run_pingpong(
            &MethodCosts::fast(),
            &LinkProfile::campus(),
            &PingPongSpec::paper(10),
            &mut rng,
        );
        assert_eq!(run.samples.len(), 1_000);
        assert!(run.samples.min().unwrap() > 0.0);
        assert_eq!(run.method, "fast");
        assert_eq!(run.link, "campus");
    }

    #[test]
    fn suite_covers_the_grid() {
        let methods = [MethodCosts::fast(), MethodCosts::reliable()];
        let runs = run_suite(&methods, &LinkProfile::campus(), 50, 7);
        assert_eq!(runs.len(), 2 * 4);
        let payloads: std::collections::BTreeSet<u64> = runs.iter().map(|r| r.payload).collect();
        assert_eq!(payloads.len(), 4);
    }

    #[test]
    fn csv_has_one_row_per_sequence() {
        let mut rng = SimRng::new(2);
        let run = run_pingpong(
            &MethodCosts::fast(),
            &LinkProfile::campus(),
            &PingPongSpec {
                sequences: 5,
                payload: 10,
            },
            &mut rng,
        );
        assert_eq!(run.to_csv().lines().count(), 6);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            run_pingpong(
                &MethodCosts::reliable(),
                &LinkProfile::wan_ifca(),
                &PingPongSpec::paper(1024),
                &mut rng,
            )
            .samples
            .mean()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
