//! Property tests on the local resource manager (allocation safety and
//! conservation under arbitrary job mixes) and on the site's memoized
//! machine ad (never stale, shared while nothing changes).

use cg_jdl::{Ad, Value};
use cg_sim::{Sim, SimDuration, SimTime};
use cg_site::{
    BackendSpec, LocalDisposition, LocalJobId, LocalJobSpec, Lrms, LrmsEvent, Policy, Site,
    SiteConfig,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The machine ad a GRIS publishes, written out attribute by attribute from
/// the site's configuration and its backend's live state — the oracle the
/// memoized ad is held against.
fn fresh_ad(site: &Site) -> Ad {
    let config = site.config();
    let backend = site.lrms();
    let mut ad = Ad::new();
    ad.set_str("Site", config.name.clone())
        .set_str("Arch", config.node_spec.arch.clone())
        .set_str("OpSys", config.node_spec.op_sys.clone())
        .set_int("TotalCpus", config.nodes as i64)
        .set_int("FreeCpus", backend.free_nodes() as i64)
        .set_int("QueueDepth", backend.queue_depth() as i64)
        .set_int("MemoryMb", config.node_spec.memory_mb as i64)
        .set_int("StorageGb", config.storage_gb as i64)
        .set_double("SpeedFactor", config.node_spec.speed_factor)
        .set_bool("AcceptsQueued", backend.accepts_queued_jobs())
        .set(
            "Tags",
            Value::List(
                config
                    .tags
                    .iter()
                    .map(|t| Value::Str(t.as_str().into()))
                    .collect(),
            ),
        );
    ad
}

/// The memo's whole contract at one instant: the shared ad is what a fresh
/// build would publish, and reading it again is the same allocation.
fn check_shared_ad(site: &Site, previous: &mut Arc<Ad>) -> Result<(), String> {
    let ad = site.machine_ad_arc();
    if *ad != fresh_ad(site) {
        return Err(format!(
            "stale shared ad:\n{ad}\nfresh:\n{}",
            fresh_ad(site)
        ));
    }
    if !Arc::ptr_eq(&ad, &site.machine_ad_arc()) {
        return Err("two reads with no state change in between differ".into());
    }
    if *ad == **previous && !Arc::ptr_eq(&ad, previous) {
        // Equal by value to the last one handed out: the key did not move,
        // so it must still be that allocation.
        return Err("unchanged inputs rebuilt the ad".into());
    }
    *previous = ad;
    Ok(())
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop::sample::select(vec![Policy::Fifo, Policy::FifoBackfill, Policy::Priority])
}

#[derive(Debug, Clone)]
struct JobSpec {
    nodes: u32,
    runtime: u64,
    priority: i64,
    arrival: u64,
}

fn jobs_strategy() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (1u32..4, 1u64..500, -5i64..5, 0u64..1_000).prop_map(
            |(nodes, runtime, priority, arrival)| JobSpec {
                nodes,
                runtime,
                priority,
                arrival,
            },
        ),
        1..25,
    )
}

proptest! {
    /// Across any job mix and policy: every accepted job starts exactly once
    /// and finishes exactly once; no node is ever double-allocated; and all
    /// nodes return at the end.
    #[test]
    fn lrms_allocation_is_safe(
        policy in policy_strategy(),
        nodes in 2usize..6,
        jobs in jobs_strategy(),
    ) {
        let mut sim = Sim::new(7);
        let lrms = Lrms::new(policy, nodes, SimDuration::from_millis(100));
        // Track node occupancy over time through Started events.
        #[derive(Default)]
        struct Tracker {
            running: HashMap<u64, Vec<usize>>, // job -> nodes
            started: u32,
            finished: u32,
            max_nodes_busy: usize,
            violations: Vec<String>,
        }
        let tracker = Rc::new(RefCell::new(Tracker::default()));
        let total_nodes = nodes;

        for job in &jobs {
            if job.nodes as usize > nodes {
                continue; // never fits; LRMS would hold it forever
            }
            let spec = LocalJobSpec {
                nodes: job.nodes,
                runtime: Some(SimDuration::from_secs(job.runtime)),
                walltime: None,
                priority: job.priority,
                user: "p".into(),
            };
            let lrms2 = lrms.clone();
            let t = Rc::clone(&tracker);
            sim.schedule_at(SimTime::from_secs(job.arrival), move |sim| {
                let t2 = Rc::clone(&t);
                lrms2.submit(sim, spec, move |_, id, ev| {
                    let mut tr = t2.borrow_mut();
                    match ev {
                        LrmsEvent::Queued => {}
                        LrmsEvent::Started { nodes } => {
                            tr.started += 1;
                            // No node may be in use by another running job.
                            let mut clashes = Vec::new();
                            for n in nodes {
                                for (other, held) in &tr.running {
                                    if held.contains(n) {
                                        clashes.push(format!(
                                            "node {n} double-allocated (jobs {other} and {})",
                                            id.0
                                        ));
                                    }
                                }
                            }
                            tr.violations.extend(clashes);
                            tr.running.insert(id.0, nodes.clone());
                            let busy: usize = tr.running.values().map(Vec::len).sum();
                            tr.max_nodes_busy = tr.max_nodes_busy.max(busy);
                        }
                        LrmsEvent::Finished | LrmsEvent::Killed { .. } => {
                            tr.finished += 1;
                            tr.running.remove(&id.0);
                        }
                    }
                });
            });
        }
        sim.run();
        let tr = tracker.borrow();
        prop_assert!(tr.violations.is_empty(), "{:?}", tr.violations);
        prop_assert_eq!(tr.started, tr.finished, "every started job terminates");
        prop_assert!(tr.max_nodes_busy <= total_nodes, "overcommitted nodes");
        prop_assert!(tr.running.is_empty());
        prop_assert_eq!(lrms.free_nodes(), total_nodes, "all nodes returned");
        prop_assert_eq!(lrms.queue_depth(), 0);
    }

    /// FIFO never starts a later-submitted job before an earlier one (equal
    /// arrival times use submission order).
    #[test]
    fn fifo_is_fifo(runtimes in prop::collection::vec(1u64..100, 2..15)) {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &rt) in runtimes.iter().enumerate() {
            let o = Rc::clone(&order);
            lrms.submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(rt)),
                move |_, _, ev| {
                    if matches!(ev, LrmsEvent::Started { .. }) {
                        o.borrow_mut().push(i);
                    }
                },
            );
        }
        sim.run();
        let got = order.borrow().clone();
        prop_assert_eq!(got, (0..runtimes.len()).collect::<Vec<_>>());
    }

    /// Walltime enforcement: a job never runs longer than its limit.
    #[test]
    fn walltime_caps_runtime(runtime in 1u64..1000, walltime in 1u64..1000) {
        let mut sim = Sim::new(1);
        let lrms = Lrms::new(Policy::Fifo, 1, SimDuration::ZERO);
        let spec = LocalJobSpec {
            nodes: 1,
            runtime: Some(SimDuration::from_secs(runtime)),
            walltime: Some(SimDuration::from_secs(walltime)),
            priority: 0,
            user: "w".into(),
        };
        let ended: Rc<RefCell<Option<(bool, f64)>>> = Rc::new(RefCell::new(None));
        let e = Rc::clone(&ended);
        lrms.submit(&mut sim, spec, move |sim, _, ev| match ev {
            LrmsEvent::Finished => {
                *e.borrow_mut() = Some((false, sim.now().as_secs_f64()));
            }
            LrmsEvent::Killed { .. } => {
                *e.borrow_mut() = Some((true, sim.now().as_secs_f64()));
            }
            _ => {}
        });
        sim.run();
        let (killed, at) = ended.borrow().expect("job terminated");
        if runtime <= walltime {
            prop_assert!(!killed);
            prop_assert!((at - runtime as f64).abs() < 1e-9);
        } else {
            prop_assert!(killed, "overrunning job must be killed");
            prop_assert!((at - walltime as f64).abs() < 1e-9);
        }
    }

    /// Under any submit/kill/complete interleaving, on every backend, the
    /// site's shared machine ad is never stale — checked after every op and
    /// after every sim event — and is rebuilt only when an input moved. Ops
    /// land on whole seconds against the default 1.5 s dispatch latency, so
    /// kills reach jobs inside the dispatch window too: a kill that lands
    /// on a job that has not started is final (`Killed`, never `Started`),
    /// every job is in exactly one state after every event, and the
    /// real-exec hook hears exactly the `Started` events delivered.
    #[test]
    fn shared_machine_ad_tracks_the_backend(
        ops in prop::collection::vec((0u8..3u8, 1u64..40u64), 1..25),
        seed in 1u64..1_000u64,
    ) {
        for backend in [
            BackendSpec::Sim,
            BackendSpec::Process { program: "true".into() },
        ] {
            let mut sim = Sim::new(seed);
            let site = Site::new(SiteConfig {
                name: "memo".into(),
                nodes: 2,
                policy: Policy::FifoBackfill,
                backend: backend.clone(),
                ..SiteConfig::default()
            });
            let mut previous = site.machine_ad_arc();
            let known: Rc<RefCell<Vec<LocalJobId>>> = Rc::new(RefCell::new(Vec::new()));
            // Per job: the lifecycle tags delivered so far, with an `x` where
            // a kill landed (possibly in the submission's own instant, ahead
            // of the `Queued` delivery) and a `!` where it did not land on a
            // job the status poll called live.
            let seen: Rc<RefCell<HashMap<LocalJobId, String>>> = Rc::default();
            for (i, &(kind, x)) in ops.iter().enumerate() {
                let b = site.lrms().clone();
                let known = Rc::clone(&known);
                let seen = Rc::clone(&seen);
                sim.schedule_at(SimTime::from_secs(i as u64 * 7 + x), move |sim| {
                    let pick = known.borrow().get(x as usize % known.borrow().len().max(1)).copied();
                    match (kind, pick) {
                        (0, _) => {
                            let spec = LocalJobSpec::simple(SimDuration::from_secs(x));
                            let seen = Rc::clone(&seen);
                            known.borrow_mut().push(b.submit(sim, spec, move |_, id, ev| {
                                seen.borrow_mut().entry(id).or_default().push(match ev {
                                    LrmsEvent::Queued => 'q',
                                    LrmsEvent::Started { .. } => 's',
                                    LrmsEvent::Finished => 'f',
                                    LrmsEvent::Killed { .. } => 'k',
                                });
                            }));
                        }
                        (1, Some(id)) => {
                            let live = matches!(
                                b.disposition(id),
                                Some(LocalDisposition::Queued | LocalDisposition::Running)
                            );
                            if b.kill(sim, id, "interleaving") != live {
                                seen.borrow_mut().entry(id).or_default().push('!');
                            } else if live {
                                seen.borrow_mut().entry(id).or_default().push('x');
                            }
                        }
                        (_, Some(id)) => b.complete(sim, id),
                        (_, None) => {}
                    }
                });
            }
            while sim.step() {
                let checked = check_shared_ad(&site, &mut previous);
                prop_assert!(checked.is_ok(), "{backend:?} at {:?}: {checked:?}", sim.now());
                let (b, s) = (site.lrms(), site.lrms().stats());
                let live = b.queue_depth() + b.dispatching_count() + b.running_count();
                prop_assert_eq!(s.submitted, live as u64 + s.finished + s.killed);
            }
            prop_assert_eq!(site.machine_ad(), fresh_ad(&site));
            let seen = seen.borrow();
            for (id, tags) in seen.iter() {
                let legal = ["qsf", "qsxk", "qxk", "xqk"].contains(&tags.as_str());
                prop_assert!(legal, "{backend:?}: job {id:?} went {tags}");
            }
            let started = seen.values().filter(|tags| tags.contains('s')).count() as u64;
            let real = site.lrms().real_exec();
            let heard = if backend == BackendSpec::Sim { 0 } else { started };
            prop_assert_eq!(real.launched, heard, "{:?}: one launch per `Started`", backend);
            prop_assert_eq!(real.completed + real.failed, real.launched);
        }
    }
}
