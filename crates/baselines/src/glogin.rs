//! The Glogin comparator.
//!
//! "Glogin provides an interactive shell while relying on Globus security.
//! With Glogin, the user must first discover and select a remote site and
//! manually establish the interactive shell to that site. Furthermore, some
//! of its functionality requires privilege permissions on the remote
//! machines." (§2)
//!
//! Two models: the streaming cost structure (GSI-wrapped records with
//! synchronous token exchanges — the reason it "does not perform very well …
//! for large sized data transfers (10K bytes)"), and the session
//! establishment pipeline for Table I (16.43 s campus / 20.12 s IFCA, with
//! resource discovery and selection "hand-made by user").

use cg_console::MethodCosts;
use cg_net::{Link, NetError};
use cg_sim::{Sim, SimDuration};

/// Streaming cost model of an established Glogin session.
pub fn glogin_method() -> MethodCosts {
    MethodCosts {
        name: "glogin".into(),
        fixed_s: 130e-6,   // GSI message wrap/unwrap entry cost
        per_byte_s: 55e-9, // GSS wrap (encrypt + MIC) per byte, 2006 CPU
        chunk_bytes: 1024, // small GSS token records
        per_chunk_s: 320e-6,
        per_chunk_rtts: 0.5, // token exchange per record — fatal at 10 KB/WAN
        disk_per_op_s: 0.0,
        disk_per_byte_s: 0.0,
        jitter_sigma: 0.10,
    }
}

/// Calibrated submission-pipeline costs for Glogin.
#[derive(Debug, Clone, Copy)]
pub struct GloginCosts {
    /// Fixed remote-side work: Globus layers the shell traverses, pty and
    /// environment setup, seconds.
    pub fixed_s: f64,
    /// Synchronous round trips during establishment (GSI handshake legs,
    /// port negotiation, banner exchanges).
    pub sync_rtts: f64,
    /// Session/environment bytes moved before the first prompt byte.
    pub session_bytes: u64,
    /// Relative jitter of the fixed part.
    pub sigma: f64,
}

impl Default for GloginCosts {
    fn default() -> Self {
        GloginCosts {
            fixed_s: 16.0,
            sync_rtts: 60.0,
            session_bytes: 5_000_000,
            sigma: 0.03,
        }
    }
}

/// Establishes a Glogin session and reports when the first output reaches
/// the user — the Table I "Submission" measurement. Discovery/selection are
/// absent: "hand-made by user".
pub fn glogin_submit(
    sim: &mut Sim,
    link: &Link,
    costs: GloginCosts,
    on_first_output: impl FnOnce(&mut Sim, Result<(), NetError>) + 'static,
) {
    if link.is_down(sim.now()) {
        sim.schedule_now(move |sim| on_first_output(sim, Err(NetError::LinkDown)));
        return;
    }
    let profile = link.profile();
    let fixed = costs.fixed_s * (1.0 + costs.sigma * sim.rng().std_normal()).max(0.5);
    let rtts = costs.sync_rtts * profile.nominal_rtt().as_secs_f64();
    let transfer = profile.serialization(costs.session_bytes).as_secs_f64();
    let total = SimDuration::from_secs_f64(fixed + rtts + transfer);
    let link2 = link.clone();
    sim.schedule_in(total, move |sim| {
        if link2.is_down(sim.now()) {
            on_first_output(sim, Err(NetError::BrokenMidTransfer));
        } else {
            on_first_output(sim, Ok(()));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_net::LinkProfile;
    use cg_sim::{SampleSet, SimRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn mean_submission(profile: LinkProfile) -> f64 {
        let mut samples = SampleSet::new();
        for seed in 0..100 {
            let mut sim = Sim::new(seed);
            let link = Link::new(profile.clone());
            let done = Rc::new(RefCell::new(None));
            let d = Rc::clone(&done);
            glogin_submit(&mut sim, &link, GloginCosts::default(), move |sim, r| {
                r.unwrap();
                *d.borrow_mut() = Some(sim.now().as_secs_f64());
            });
            sim.run();
            samples.record(done.borrow().unwrap());
        }
        samples.mean()
    }

    #[test]
    fn campus_submission_near_16_43_seconds() {
        let t = mean_submission(LinkProfile::campus());
        assert!(
            (15.0..18.0).contains(&t),
            "glogin campus submission {t}s vs paper 16.43"
        );
    }

    #[test]
    fn ifca_submission_near_20_12_seconds() {
        let t = mean_submission(LinkProfile::wan_ifca());
        assert!(
            (18.5..22.0).contains(&t),
            "glogin IFCA submission {t}s vs paper 20.12"
        );
    }

    #[test]
    fn wan_is_slower_than_campus_by_a_few_seconds() {
        let c = mean_submission(LinkProfile::campus());
        let w = mean_submission(LinkProfile::wan_ifca());
        assert!((2.0..6.0).contains(&(w - c)), "gap {w}-{c}");
    }

    #[test]
    fn glogin_collapses_at_10kb_on_wan() {
        // Figure 7's key shape.
        let wan = LinkProfile::wan_ifca();
        let mut rng = SimRng::new(3);
        let mean = |costs: &MethodCosts, rng: &mut SimRng, bytes: u64| {
            (0..1000)
                .map(|_| costs.sequence_rtt(rng, &wan, bytes).as_secs_f64())
                .sum::<f64>()
                / 1000.0
        };
        let glogin_small = mean(&glogin_method(), &mut rng, 1024);
        let glogin_big = mean(&glogin_method(), &mut rng, 10 * 1024);
        let ssh_big = mean(&crate::ssh_method(), &mut rng, 10 * 1024);
        assert!(
            glogin_big > 3.0 * glogin_small,
            "10KB must collapse vs 1KB: {glogin_big} vs {glogin_small}"
        );
        assert!(
            glogin_big > 2.0 * ssh_big,
            "glogin {glogin_big} must be far worse than ssh {ssh_big} at 10KB"
        );
    }

    #[test]
    fn glogin_worse_than_ssh_on_campus() {
        // "Glogin does not perform very well in the campus grid."
        let campus = LinkProfile::campus();
        let mut rng = SimRng::new(4);
        for bytes in [10u64, 1024, 10 * 1024] {
            let g: f64 = (0..500)
                .map(|_| {
                    glogin_method()
                        .sequence_rtt(&mut rng, &campus, bytes)
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 500.0;
            let s: f64 = (0..500)
                .map(|_| {
                    crate::ssh_method()
                        .sequence_rtt(&mut rng, &campus, bytes)
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 500.0;
            assert!(g > s, "{bytes}B: glogin {g} vs ssh {s}");
        }
    }

    #[test]
    fn submit_fails_on_dead_link() {
        let mut sim = Sim::new(1);
        let faults = cg_net::FaultSchedule::from_windows(vec![(
            cg_sim::SimTime::ZERO,
            cg_sim::SimTime::from_secs(100),
        )]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        glogin_submit(&mut sim, &link, GloginCosts::default(), move |_, r| {
            *g.borrow_mut() = Some(r.is_err());
        });
        sim.run();
        assert_eq!(*got.borrow(), Some(true));
    }
}
