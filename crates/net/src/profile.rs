//! Link profiles: the latency/bandwidth/jitter/loss parameters of a path.
//!
//! Two calibrated presets reproduce the paper's scenarios (§6): the *campus
//! grid* (submission and execution machines on the 100 Mbps university
//! network) and the *wide-area* path between the UAB department and the IFCA
//! centre in Santander over the Spanish academic Internet. Constants are
//! inputs to the models, documented here, and swept by the ablation benches.

use cg_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Static description of a network path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Human-readable name used in reports.
    pub name: String,
    /// One-way propagation + switching delay, seconds.
    pub base_latency_s: f64,
    /// Jitter: standard deviation added to each one-way latency, seconds.
    pub jitter_s: f64,
    /// Usable bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// Probability that a datagram-level message is lost (TCP-like transports
    /// retransmit, paying an extra RTT; see [`LinkProfile::one_way`]).
    pub loss_prob: f64,
    /// Fixed per-message processing cost at each endpoint, seconds
    /// (kernel + NIC; not middleware, which the higher layers add).
    pub per_msg_overhead_s: f64,
}

impl LinkProfile {
    /// The campus-grid scenario: submission and execution machines connected
    /// by the 100 Mbps university LAN (paper §6, first scenario).
    pub fn campus() -> Self {
        LinkProfile {
            name: "campus".into(),
            base_latency_s: 200e-6, // 0.2 ms one-way across campus switches
            jitter_s: 40e-6,
            bandwidth_bps: 100e6,
            loss_prob: 1e-5,
            per_msg_overhead_s: 30e-6,
        }
    }

    /// The wide-area scenario: UAB (Barcelona) to IFCA (Santander) over the
    /// Spanish academic Internet (paper §6, second scenario).
    pub fn wan_ifca() -> Self {
        LinkProfile {
            name: "wan-ifca".into(),
            base_latency_s: 14e-3, // ~28 ms RTT Barcelona–Santander
            jitter_s: 2.5e-3,      // shared backbone: visible variance
            bandwidth_bps: 20e6,   // per-flow share of the academic backbone
            loss_prob: 2e-4,
            per_msg_overhead_s: 30e-6,
        }
    }

    /// Broker to the project-wide information system (the paper's MDS index
    /// lived in Germany while the broker ran in Spain).
    pub fn wan_mds() -> Self {
        LinkProfile {
            name: "wan-mds".into(),
            base_latency_s: 25e-3,
            jitter_s: 4e-3,
            bandwidth_bps: 10e6,
            loss_prob: 3e-4,
            per_msg_overhead_s: 30e-6,
        }
    }

    /// Same-host loopback, for calibration tests.
    pub fn loopback() -> Self {
        LinkProfile {
            name: "loopback".into(),
            base_latency_s: 10e-6,
            jitter_s: 1e-6,
            bandwidth_bps: 10e9,
            loss_prob: 0.0,
            per_msg_overhead_s: 2e-6,
        }
    }

    /// Serialization (transmission) time for a payload of `bytes`.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    /// Samples a one-way delivery delay for `bytes`: latency + jitter +
    /// serialization + per-message overhead. Each sampled loss event costs one
    /// extra base RTT (TCP-like fast retransmit).
    pub fn one_way(&self, rng: &mut SimRng, bytes: u64) -> SimDuration {
        let latency = (self.base_latency_s + rng.normal(0.0, self.jitter_s)).max(0.0);
        let mut d = SimDuration::from_secs_f64(latency + self.per_msg_overhead_s)
            + self.serialization(bytes);
        let mut p = self.loss_prob;
        while rng.chance(p) {
            d += SimDuration::from_secs_f64(2.0 * self.base_latency_s);
            p *= p.min(0.5); // consecutive losses increasingly unlikely
            if p < 1e-12 {
                break;
            }
        }
        d
    }

    /// Mean round-trip time for tiny messages (no serialization term).
    pub fn nominal_rtt(&self) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * (self.base_latency_s + self.per_msg_overhead_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_linearly() {
        let p = LinkProfile::campus();
        let t1 = p.serialization(1_000);
        let t10 = p.serialization(10_000);
        assert_eq!(t10.as_nanos(), t1.as_nanos() * 10);
        // 10 KB over 100 Mbps = 0.8 ms.
        assert!((p.serialization(10_000).as_secs_f64() - 0.0008).abs() < 1e-9);
    }

    #[test]
    fn one_way_centers_on_nominal() {
        let p = LinkProfile::campus();
        let mut rng = SimRng::new(1);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| p.one_way(&mut rng, 10).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let expected = p.base_latency_s + p.per_msg_overhead_s + p.serialization(10).as_secs_f64();
        assert!(
            (mean - expected).abs() < 0.1 * expected,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn wan_is_slower_than_campus() {
        let mut rng = SimRng::new(2);
        let campus: f64 = (0..1000)
            .map(|_| LinkProfile::campus().one_way(&mut rng, 1000).as_secs_f64())
            .sum();
        let wan: f64 = (0..1000)
            .map(|_| {
                LinkProfile::wan_ifca()
                    .one_way(&mut rng, 1000)
                    .as_secs_f64()
            })
            .sum();
        assert!(wan > 10.0 * campus, "wan {wan} campus {campus}");
    }

    #[test]
    fn wan_has_higher_variance() {
        let mut rng = SimRng::new(3);
        let sd = |p: &LinkProfile, rng: &mut SimRng| {
            let xs: Vec<f64> = (0..2000)
                .map(|_| p.one_way(rng, 10).as_secs_f64())
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let c = sd(&LinkProfile::campus(), &mut rng);
        let w = sd(&LinkProfile::wan_ifca(), &mut rng);
        assert!(w > 10.0 * c, "wan sd {w} campus sd {c}");
    }

    #[test]
    fn nominal_rtt_matches_parameters() {
        let p = LinkProfile::wan_ifca();
        assert!((p.nominal_rtt().as_secs_f64() - 2.0 * (14e-3 + 30e-6)).abs() < 1e-9);
    }
}
