//! Ablations on the design choices DESIGN.md calls out: spool buffer size,
//! fair-share dynamics, degree of multi-programming, and the exclusive
//! temporal lease.

use cg_console::MethodCosts;
use cg_jdl::JobDescription;
use cg_net::{Link, LinkProfile};
use cg_sim::{Sim, SimDuration, SimRng, SimTime, TimeSeries};
use cg_site::{Policy, Site, SiteConfig};
use cg_vm::{VmMachine, SHARE_EFFICIENCY};
use crossbroker::{BrokerConfig, CrossBroker, FairShare, FairShareConfig, SiteHandle, UsageKind};

/// Buffer-size ablation: mean sequence RTT of the reliable mode at 10 KB as
/// the spool buffer shrinks — the mechanism behind the Figure 6 crossover.
pub fn buffer_sweep(buffers: &[u64], payload: u64, sequences: u32, seed: u64) -> Vec<(u64, f64)> {
    let campus = LinkProfile::campus();
    buffers
        .iter()
        .map(|&b| {
            let costs = MethodCosts::reliable_with_buffer(b);
            let mut rng = SimRng::new(seed ^ b);
            let mean = (0..sequences)
                .map(|_| costs.sequence_rtt(&mut rng, &campus, payload).as_secs_f64())
                .sum::<f64>()
                / sequences as f64;
            (b, mean)
        })
        .collect()
}

/// Fair-share trajectory: one user's priority over time while running the
/// given usage kind, then idling — Equation (1) made visible.
pub fn priority_trajectory(
    kind: UsageKind,
    cpus: u32,
    total_cpus: u32,
    busy_ticks: u32,
    idle_ticks: u32,
    half_life: SimDuration,
) -> TimeSeries {
    let config = FairShareConfig {
        half_life,
        delta_t: SimDuration::from_secs(60),
        initial: 0.0,
        epsilon: 1e-9,
    };
    let mut fs = FairShare::new(config, total_cpus);
    let usage = fs.register("u", kind, cpus);
    let mut ts = TimeSeries::new();
    let mut t = SimTime::ZERO;
    ts.record(t, fs.priority("u"));
    for _ in 0..busy_ticks {
        t += SimDuration::from_secs(60);
        fs.tick(t);
        ts.record(t, fs.priority("u"));
    }
    fs.release(usage);
    for _ in 0..idle_ticks {
        t += SimDuration::from_secs(60);
        fs.tick(t);
        ts.record(t, fs.priority("u"));
    }
    ts
}

/// Degree-of-multi-programming ablation (§5.2 future work: "creating
/// dynamically more than two virtual machines"): `k` interactive tasks of
/// equal work sharing one node with a batch job. Returns
/// `(k, interactive_completion_s, batch_completion_s)`.
pub fn multiprog_sweep(degrees: &[usize], work_s: u64, pl: u8) -> Vec<(usize, f64, f64)> {
    degrees
        .iter()
        .map(|&k| {
            let mut sim = Sim::new(11);
            let vm = VmMachine::with_capacity(SHARE_EFFICIENCY, k);
            let batch_done = std::rc::Rc::new(std::cell::RefCell::new(0.0f64));
            let iv_done = std::rc::Rc::new(std::cell::RefCell::new(0.0f64));
            {
                let d = std::rc::Rc::clone(&batch_done);
                vm.run_batch(&mut sim, SimDuration::from_secs(work_s), move |sim| {
                    *d.borrow_mut() = sim.now().as_secs_f64();
                })
                .unwrap();
            }
            for _ in 0..k {
                let d = std::rc::Rc::clone(&iv_done);
                vm.run_interactive(&mut sim, SimDuration::from_secs(work_s), pl, move |sim| {
                    let t = sim.now().as_secs_f64();
                    let mut cur = d.borrow_mut();
                    *cur = cur.max(t);
                })
                .unwrap();
            }
            sim.run();
            let iv = *iv_done.borrow();
            let batch = *batch_done.borrow();
            (k, iv, batch)
        })
        .collect()
}

/// Outcome of the lease/herd experiment.
#[derive(Debug, Clone, Copy)]
pub struct LeaseOutcome {
    /// Lease length used.
    pub lease_s: f64,
    /// Jobs that started.
    pub started: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Resubmissions performed (collisions recovered by on-line scheduling).
    pub resubmissions: u64,
    /// Mean response time of started jobs, seconds.
    pub mean_response_s: f64,
}

/// Herd experiment: `n_jobs` exclusive interactive jobs submitted within one
/// second against `n_sites` single-node sites, with and without the
/// exclusive temporal lease.
pub fn lease_experiment(
    lease: SimDuration,
    n_jobs: usize,
    n_sites: usize,
    seed: u64,
) -> LeaseOutcome {
    let mut sim = Sim::new(seed);
    let mut handles = Vec::new();
    for i in 0..n_sites {
        let site = Site::new(SiteConfig {
            name: format!("site{i}"),
            nodes: 1,
            policy: Policy::Fifo,
            ..SiteConfig::default()
        });
        handles.push(SiteHandle {
            site,
            broker_link: Link::new(LinkProfile::campus()),
            ui_link: Link::new(LinkProfile::campus()),
        });
    }
    let config = BrokerConfig {
        lease,
        ..BrokerConfig::default()
    };
    let broker = CrossBroker::new(&mut sim, handles, Link::new(LinkProfile::wan_mds()), config);
    let job_src = r#"
        Executable = "iapp"; JobType = "interactive";
        MachineAccess = "exclusive"; User = "u";
    "#;
    for i in 0..n_jobs {
        let broker2 = broker.clone();
        let job = JobDescription::parse(job_src).unwrap();
        sim.schedule_at(
            SimTime::from_nanos(1 + i as u64 * 100_000_000),
            move |sim| {
                broker2.submit(sim, job, SimDuration::from_secs(30));
            },
        );
    }
    sim.run_until(SimTime::from_secs(3_600));
    let stats = broker.stats();
    let responses: Vec<f64> = broker
        .records()
        .iter()
        .filter_map(|r| r.response_s())
        .collect();
    LeaseOutcome {
        lease_s: lease.as_secs_f64(),
        started: stats.started,
        failed: stats.failed + stats.rejected,
        resubmissions: stats.resubmissions,
        mean_response_s: if responses.is_empty() {
            f64::NAN
        } else {
            responses.iter().sum::<f64>() / responses.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_buffers_cost_more_at_large_payloads() {
        let sweep = buffer_sweep(&[1_024, 65_536], 10_240, 500, 1);
        assert!(sweep[0].1 > sweep[1].1, "{sweep:?}");
    }

    #[test]
    fn trajectory_rises_then_decays() {
        let ts = priority_trajectory(
            UsageKind::Batch,
            10,
            100,
            60,
            120,
            SimDuration::from_secs(3_600),
        );
        let points = ts.points();
        let peak_at_release = points[60].1;
        assert!(peak_at_release > 0.0);
        assert!(
            points.last().unwrap().1 < peak_at_release / 2.0,
            "decays after release"
        );
        // Monotone rise while busy.
        for w in points[..61].windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn more_interactive_slots_stretch_everyone() {
        let sweep = multiprog_sweep(&[1, 2, 4], 100, 10);
        // Interactive completion grows with the degree (they share the CPU).
        assert!(sweep[0].1 < sweep[1].1);
        assert!(sweep[1].1 < sweep[2].1);
    }

    #[test]
    fn lease_reduces_collisions() {
        let with = lease_experiment(SimDuration::from_secs(30), 4, 6, 5);
        let without = lease_experiment(SimDuration::ZERO, 4, 6, 5);
        assert!(with.started >= without.started);
        assert!(
            with.resubmissions <= without.resubmissions,
            "lease should not increase collisions: {with:?} vs {without:?}"
        );
    }
}
