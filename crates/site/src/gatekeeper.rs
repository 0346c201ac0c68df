//! The site gatekeeper — a Globus 2.4 GRAM model.
//!
//! Submission from the broker to a worker node traverses: GSI
//! authentication, the gatekeeper fork of a jobmanager, optional two-phase
//! commit (CrossBroker "uses a two phase commit protocol that guarantees a
//! better detection of error conditions at submission time", §6.1), input
//! sandbox staging, and finally the local batch system. Each layer's cost is
//! explicit so Table I decomposes the same way the paper's numbers do.

use std::rc::Rc;

use cg_net::{Dir, HandshakeProfile, Link, NetError, Session};
use cg_sim::{Sim, SimDuration};
use serde::{Deserialize, Serialize};

use crate::backend::BackendHandle;
use crate::lrms::{LocalJobId, LocalJobSpec, LrmsEvent};

/// Shared submitter-side event callback.
type GramCallback = Rc<dyn Fn(&mut Sim, &GramEvent)>;

/// Calibrated costs of the Globus-era middleware layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GramCosts {
    /// Median time for the gatekeeper to authenticate, authorize (gridmap
    /// lookup) and fork a jobmanager process, seconds. Globus 2.x was
    /// notoriously heavy here.
    pub jobmanager_median_s: f64,
    /// Log-normal sigma of the jobmanager cost (long tail under load).
    pub jobmanager_sigma: f64,
    /// Fixed GridFTP session setup for sandbox staging, seconds.
    pub staging_setup_s: f64,
    /// Job-request message size, bytes (RSL + delegated proxy).
    pub request_bytes: u64,
    /// Status/ack message size, bytes.
    pub ack_bytes: u64,
    /// Whether the submitter runs the two-phase commit exchange.
    pub two_phase_commit: bool,
}

impl GramCosts {
    /// Calibration for the 2006 testbed (Globus 2.4 on Pentium-class
    /// gatekeepers). With LRMS dispatch and console startup this lands the
    /// "Idle" row of Table I near the paper's 17.2 s.
    pub fn globus24() -> Self {
        GramCosts {
            jobmanager_median_s: 12.3,
            jobmanager_sigma: 0.15,
            staging_setup_s: 1.2,
            request_bytes: 6_000,
            ack_bytes: 400,
            two_phase_commit: true,
        }
    }
}

/// Events the submitter observes, each delivered after the status message
/// crosses the broker↔site link.
#[derive(Debug, Clone, PartialEq)]
pub enum GramEvent {
    /// The jobmanager accepted the job and handed it to the LRMS.
    Accepted {
        /// LRMS-local job id.
        local_id: LocalJobId,
    },
    /// The LRMS queued the job (it did NOT start immediately — the signal
    /// CrossBroker's on-line scheduling reacts to by resubmitting elsewhere).
    Queued,
    /// The job started on worker nodes.
    Started {
        /// Allocated node indices.
        nodes: Vec<usize>,
    },
    /// The job finished normally.
    Finished,
    /// The job was killed at the site.
    Killed {
        /// Why.
        reason: String,
    },
    /// Submission failed before reaching the LRMS.
    Failed(NetError),
}

/// A site's gatekeeper: front door from the broker network to the local
/// execution backend.
#[derive(Clone)]
pub struct Gatekeeper {
    lrms: BackendHandle,
    costs: Rc<GramCosts>,
}

impl Gatekeeper {
    /// Wraps an execution backend behind GRAM semantics. Accepts anything
    /// convertible to a [`BackendHandle`] — a bare [`crate::Lrms`] included.
    pub fn new(lrms: impl Into<BackendHandle>, costs: GramCosts) -> Self {
        Gatekeeper {
            lrms: lrms.into(),
            costs: Rc::new(costs),
        }
    }

    /// The execution backend behind this gatekeeper.
    pub fn lrms(&self) -> &BackendHandle {
        &self.lrms
    }

    /// Submits a job through the full GRAM pipeline. `link` is the
    /// broker↔site path; `sandbox_bytes` is staged before the LRMS sees the
    /// job. `on_event` observes [`GramEvent`]s on the broker side.
    pub fn submit(
        &self,
        sim: &mut Sim,
        link: Link,
        spec: LocalJobSpec,
        sandbox_bytes: u64,
        on_event: impl Fn(&mut Sim, &GramEvent) + 'static,
    ) {
        let on_event: GramCallback = Rc::new(on_event);
        let costs = Rc::clone(&self.costs);
        let lrms = self.lrms.clone();

        // 1. GSI authentication to the gatekeeper.
        let link2 = link.clone();
        let fail = {
            let on_event = Rc::clone(&on_event);
            move |sim: &mut Sim, e: NetError| {
                let on_event = Rc::clone(&on_event);
                sim.schedule_now(move |sim| on_event(sim, &GramEvent::Failed(e)));
            }
        };
        Session::connect(
            sim,
            link.clone(),
            Dir::AToB,
            HandshakeProfile::gsi(),
            move |sim, r| {
                let session = match r {
                    Err(e) => return fail(sim, e),
                    Ok(s) => s,
                };
                // 2. Job request (RSL + proxy) to the gatekeeper.
                let costs2 = Rc::clone(&costs);
                let on2 = Rc::clone(&on_event);
                let fail2 = fail.clone();
                let session_cl = session.clone();
                session_cl.send(sim, costs.request_bytes, move |sim, r| {
                    if let Err(e) = r {
                        return fail2(sim, e);
                    }
                    // 3. Gatekeeper forks the jobmanager.
                    let fork = sim
                        .rng()
                        .log_normal_duration(costs2.jobmanager_median_s, costs2.jobmanager_sigma);
                    let costs3 = Rc::clone(&costs2);
                    let session2 = session.clone();
                    sim.schedule_in(fork, move |sim| {
                        // 4. Optional two-phase commit: ready ack to the
                        //    broker, commit message back.
                        let proceed = {
                            let costs4 = Rc::clone(&costs3);
                            let session3 = session2.clone();
                            let on3 = Rc::clone(&on2);
                            let fail3 = fail2.clone();
                            move |sim: &mut Sim| {
                                stage_and_submit(
                                    sim,
                                    session3.clone(),
                                    link2.clone(),
                                    lrms.clone(),
                                    spec.clone(),
                                    sandbox_bytes,
                                    Rc::clone(&costs4),
                                    Rc::clone(&on3),
                                    fail3.clone(),
                                );
                            }
                        };
                        if costs3.two_phase_commit {
                            let fail4 = fail2.clone();
                            let ack = costs3.ack_bytes;
                            let session4 = session2.clone();
                            session2.send_back(sim, ack, move |sim, r| {
                                if let Err(e) = r {
                                    return fail4(sim, e);
                                }
                                let fail5 = fail4.clone();
                                session4.send(sim, ack, move |sim, r| match r {
                                    Err(e) => fail5(sim, e),
                                    Ok(()) => proceed(sim),
                                });
                            });
                        } else {
                            proceed(sim);
                        }
                    });
                });
            },
        );
    }
}

// Staging parameters arrive as one bundle from the submit path; a carrier
// struct would only rename the argument list at its single call site.
#[allow(clippy::too_many_arguments)]
fn stage_and_submit(
    sim: &mut Sim,
    session: Session,
    link: Link,
    lrms: BackendHandle,
    spec: LocalJobSpec,
    sandbox_bytes: u64,
    costs: Rc<GramCosts>,
    on_event: GramCallback,
    fail: impl Fn(&mut Sim, NetError) + Clone + 'static,
) {
    // 5. Stage the input sandbox (GridFTP setup + transfer).
    let setup = SimDuration::from_secs_f64(costs.staging_setup_s);
    let do_stage = move |sim: &mut Sim| {
        let submit_to_lrms = {
            let link = link.clone();
            let on_event = Rc::clone(&on_event);
            move |sim: &mut Sim| {
                // 6. Hand to the LRMS; forward every event across the link.
                let ack_bytes = costs.ack_bytes;
                let forward = move |sim: &mut Sim, ev: GramEvent, link: &Link| {
                    let on_event = Rc::clone(&on_event);
                    link.send(sim, Dir::BToA, ack_bytes, move |sim, r| match r {
                        // Status messages lost to outages are dropped — the
                        // paper's broker re-learns state by polling; models
                        // that care use reliable console streams instead.
                        Err(_) => {}
                        Ok(()) => on_event(sim, &ev),
                    });
                };
                let link2 = link.clone();
                // The LRMS stores this callback for as long as the job is
                // live; a strong handle in it would keep the LRMS alive.
                let weak_lrms = lrms.downgrade();
                lrms.submit(sim, spec, move |sim, local_id, ev| {
                    let mapped = match ev {
                        LrmsEvent::Queued => Some(GramEvent::Accepted { local_id }),
                        LrmsEvent::Started { nodes } => Some(GramEvent::Started {
                            nodes: nodes.clone(),
                        }),
                        LrmsEvent::Finished => Some(GramEvent::Finished),
                        LrmsEvent::Killed { reason } => Some(GramEvent::Killed {
                            reason: reason.clone(),
                        }),
                    };
                    if let Some(ev) = mapped {
                        forward(sim, ev, &link2);
                    }
                    // A job that is queued and not started within the
                    // scheduler cycle is reported as Queued (the broker's
                    // resubmission trigger).
                    if matches!(ev, LrmsEvent::Queued)
                        && weak_lrms.upgrade().is_some_and(|l| lrms_is_backed_up(&l))
                    {
                        forward(sim, GramEvent::Queued, &link2);
                    }
                });
            }
        };
        if sandbox_bytes == 0 {
            sim.schedule_in(setup, submit_to_lrms);
        } else {
            sim.schedule_in(setup, move |sim| {
                let fail2 = fail.clone();
                session.send(sim, sandbox_bytes, move |sim, r| match r {
                    Err(e) => fail2(sim, e),
                    Ok(()) => submit_to_lrms(sim),
                });
            });
        }
    };
    do_stage(sim);
}

fn lrms_is_backed_up(lrms: &crate::Lrms) -> bool {
    lrms.free_nodes() == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::{Lrms, Policy};
    use cg_net::LinkProfile;
    use std::cell::RefCell;

    type Log = Rc<RefCell<Vec<(String, f64)>>>;

    fn logging(log: Log) -> impl Fn(&mut Sim, &GramEvent) {
        move |sim, ev| {
            let tag = match ev {
                GramEvent::Accepted { .. } => "accepted".into(),
                GramEvent::Queued => "queued".into(),
                GramEvent::Started { .. } => "started".into(),
                GramEvent::Finished => "finished".into(),
                GramEvent::Killed { reason } => format!("killed:{reason}"),
                GramEvent::Failed(e) => format!("failed:{e}"),
            };
            log.borrow_mut().push((tag, sim.now().as_secs_f64()));
        }
    }

    fn submit_one(
        link_profile: LinkProfile,
        free_nodes: usize,
        sandbox: u64,
    ) -> (Vec<(String, f64)>, Lrms) {
        let mut sim = Sim::new(42);
        let lrms = Lrms::new(
            Policy::Fifo,
            free_nodes.max(1),
            SimDuration::from_millis(1500),
        );
        if free_nodes == 0 {
            // Occupy the single node with a long batch job.
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(100_000)),
                |_, _, _| {},
            );
            sim.run_until(cg_sim::SimTime::from_secs(10));
        }
        let gk = Gatekeeper::new(lrms.clone(), GramCosts::globus24());
        let link = Link::new(link_profile);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        gk.submit(
            &mut sim,
            link,
            LocalJobSpec::simple(SimDuration::from_secs(60)),
            sandbox,
            logging(Rc::clone(&log)),
        );
        sim.run_until(cg_sim::SimTime::from_secs(4_000));
        let out = log.borrow().clone();
        (out, lrms)
    }

    #[test]
    fn a_live_job_does_not_keep_its_lrms_alive() {
        // Regression: the callback the LRMS stores while a job is live held
        // a strong handle to that LRMS, so a site dropped with a running
        // job (a glide-in agent's carrier, say) leaked its backend.
        let mut sim = Sim::new(7);
        let gk = Gatekeeper::new(
            Lrms::new(Policy::Fifo, 1, SimDuration::from_millis(1500)),
            GramCosts::globus24(),
        );
        gk.submit(
            &mut sim,
            Link::new(LinkProfile::campus()),
            LocalJobSpec::simple(SimDuration::from_secs(100_000)),
            0,
            |_, _| {},
        );
        sim.run_until(cg_sim::SimTime::from_secs(60));
        assert_eq!(gk.lrms().running_count(), 1);
        let weak = gk.lrms().downgrade();
        drop(gk);
        drop(sim);
        assert!(weak.upgrade().is_none(), "the LRMS outlived its site");
    }

    #[test]
    fn idle_site_submission_lands_in_globus_era_range() {
        let (log, _) = submit_one(LinkProfile::campus(), 4, 1_000_000);
        let started = log
            .iter()
            .find(|(t, _)| t == "started")
            .expect("job started");
        // GSI + jobmanager fork + 2PC + staging + dispatch: several seconds,
        // the order of magnitude Table I reports for the middleware path.
        assert!(
            (8.0..25.0).contains(&started.1),
            "submission pipeline took {}s",
            started.1
        );
        let accepted = log.iter().find(|(t, _)| t == "accepted").unwrap();
        assert!(accepted.1 < started.1);
    }

    #[test]
    fn busy_site_reports_queued() {
        let (log, lrms) = submit_one(LinkProfile::campus(), 0, 0);
        assert!(
            log.iter().any(|(t, _)| t == "queued"),
            "broker must learn the job queued: {log:?}"
        );
        assert!(log.iter().all(|(t, _)| t != "started"));
        assert_eq!(lrms.queue_depth(), 1);
    }

    #[test]
    fn finished_event_reaches_broker() {
        let (log, _) = submit_one(LinkProfile::campus(), 2, 0);
        let finished = log.iter().find(|(t, _)| t == "finished").expect("finished");
        let started = log.iter().find(|(t, _)| t == "started").unwrap();
        assert!(
            (finished.1 - started.1 - 60.0).abs() < 1.0,
            "runtime ≈ 60 s"
        );
    }

    #[test]
    fn dead_link_fails_submission() {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let gk = Gatekeeper::new(lrms, GramCosts::globus24());
        let faults = cg_net::FaultSchedule::from_windows(vec![(
            cg_sim::SimTime::ZERO,
            cg_sim::SimTime::from_secs(1_000),
        )]);
        let link = Link::with_faults(LinkProfile::campus(), faults);
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        gk.submit(
            &mut sim,
            link,
            LocalJobSpec::simple(SimDuration::from_secs(1)),
            0,
            logging(Rc::clone(&log)),
        );
        sim.run();
        assert!(
            log.borrow()[0].0.starts_with("failed:"),
            "{:?}",
            log.borrow()
        );
    }

    #[test]
    fn wan_submission_slower_than_campus() {
        let started_at = |p: LinkProfile| {
            let (log, _) = submit_one(p, 4, 1_000_000);
            log.iter().find(|(t, _)| t == "started").unwrap().1
        };
        let campus = started_at(LinkProfile::campus());
        let wan = started_at(LinkProfile::wan_ifca());
        assert!(wan > campus, "wan {wan} campus {campus}");
    }
}
