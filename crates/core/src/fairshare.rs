//! The fair-share priority engine — Equation (1) of the paper.
//!
//! `P(u,t) = β · P(u, t−δt) + (1−β) · a_f · r(u,t)`, with
//! `β = 0.5^(δt/h)` for half-life `h`. Higher `P` means **worse** priority.
//! The application factor `a_f` depends on what the user is running:
//!
//! - batch jobs: `a_f = 1`;
//! - interactive jobs: `a_f = 2 − PL/100` — they "worsen the priority faster
//!   than in the previous case";
//! - batch jobs forced to yield their machine to an interactive job:
//!   `a_f = PL/100` of that interactive application — the compensation for
//!   being throttled;
//! - idle users decay back toward the initial priority at rate `h`.
//!
//! The engine prevents users from "always submitting their jobs as
//! interactive and therefore saturating the system": when resources are
//! scarce, jobs from users with worse priority than others are rejected.

use std::collections::HashMap;
use std::sync::Arc;

use cg_sim::{SimDuration, SimTime};
use cg_trace::{Event, EventLog};

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct FairShareConfig {
    /// Half-life `h`: the rate at which priority values improve.
    pub half_life: SimDuration,
    /// Update period `δt`.
    pub delta_t: SimDuration,
    /// Initial (best) priority value.
    pub initial: f64,
    /// Floor below which a priority snaps back to `initial` (the paper
    /// restores "the original number of credits" for idle users).
    pub epsilon: f64,
}

impl Default for FairShareConfig {
    fn default() -> Self {
        FairShareConfig {
            half_life: SimDuration::from_secs(3_600),
            delta_t: SimDuration::from_secs(60),
            initial: 0.0,
            epsilon: 1e-6,
        }
    }
}

/// What a user is currently running, for the `a_f · r(u,t)` term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UsageKind {
    /// A plain batch job (`a_f = 1`).
    Batch,
    /// An interactive job with this PerformanceLoss (`a_f = 2 − PL/100`).
    Interactive {
        /// Its `PerformanceLoss` attribute.
        performance_loss: u8,
    },
    /// A batch job yielded to an interactive job with this PL
    /// (`a_f = PL/100`).
    YieldedBatch {
        /// The interactive job's `PerformanceLoss`.
        performance_loss: u8,
    },
}

impl UsageKind {
    /// The application factor `a_f` (§5.1).
    pub fn application_factor(self) -> f64 {
        match self {
            UsageKind::Batch => 1.0,
            UsageKind::Interactive { performance_loss } => 2.0 - performance_loss as f64 / 100.0,
            UsageKind::YieldedBatch { performance_loss } => performance_loss as f64 / 100.0,
        }
    }
}

/// Identifies one usage registration so it can be released.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UsageId(u64);

#[derive(Debug, Clone)]
struct Usage {
    /// The user's shared name.
    user: Arc<str>,
    kind: UsageKind,
    /// Resources used, as a count of CPUs.
    cpus: u32,
}

/// The fair-share engine. Call [`FairShare::tick`] every `δt` (the broker
/// schedules this).
#[derive(Debug)]
pub struct FairShare {
    config: FairShareConfig,
    priorities: HashMap<Arc<str>, f64>,
    /// Running usages in ascending id order (ids are issued in order, so a
    /// registration is an append): a user's charges are summed in this
    /// fixed order.
    usages: Vec<(UsageId, Usage)>,
    /// Scratch of [`FairShare::tick`], kept between ticks so that a user
    /// running something at consecutive ticks costs no allocation: the
    /// summed charge of each user with something running at the last tick
    /// (`None`, for one more tick, for a user who had nothing running).
    load: HashMap<Arc<str>, Option<f64>>,
    next_usage: u64,
    /// Total CPUs in the grid, the normalizer of `r(u,t)`.
    total_cpus: u32,
    last_tick: Option<SimTime>,
    /// Lifecycle event sink (ticks and kind transitions).
    trace: Option<EventLog>,
    /// [`UsageKind::label`] of each kind in [`UsageKind::index`] order, made
    /// once and shared by every `PriorityChanged`.
    kind_labels: [Arc<str>; 3],
}

impl UsageKind {
    /// Stable lower-case label (trace field value).
    fn label(self) -> &'static str {
        match self {
            UsageKind::Batch => "batch",
            UsageKind::Interactive { .. } => "interactive",
            UsageKind::YieldedBatch { .. } => "yielded-batch",
        }
    }

    /// The kind's position in [`FairShare`]'s label table.
    fn index(self) -> usize {
        match self {
            UsageKind::Batch => 0,
            UsageKind::Interactive { .. } => 1,
            UsageKind::YieldedBatch { .. } => 2,
        }
    }
}

impl FairShare {
    /// Creates the engine for a grid of `total_cpus` CPUs.
    pub fn new(config: FairShareConfig, total_cpus: u32) -> Self {
        assert!(total_cpus > 0, "grid with zero CPUs");
        FairShare {
            config,
            priorities: HashMap::new(),
            usages: Vec::new(),
            load: HashMap::new(),
            next_usage: 0,
            total_cpus,
            last_tick: None,
            trace: None,
            kind_labels: [
                UsageKind::Batch,
                UsageKind::Interactive {
                    performance_loss: 0,
                },
                UsageKind::YieldedBatch {
                    performance_loss: 0,
                },
            ]
            .map(|kind| Arc::from(kind.label())),
        }
    }

    /// Routes tick and priority-kind events into `log`.
    pub fn set_trace(&mut self, log: EventLog) {
        self.trace = Some(log);
    }

    /// Registers a running job's resource usage. Returns a handle for
    /// [`release`](FairShare::release) and for yield transitions.
    pub fn register(&mut self, user: impl Into<Arc<str>>, kind: UsageKind, cpus: u32) -> UsageId {
        let id = UsageId(self.next_usage);
        self.next_usage += 1;
        let usage = Usage {
            user: user.into(),
            kind,
            cpus,
        };
        self.usages.push((id, usage));
        id
    }

    fn position(&self, id: UsageId) -> Option<usize> {
        self.usages.binary_search_by_key(&id.0, |(u, _)| u.0).ok()
    }

    /// Ends a usage (job finished or was killed).
    pub fn release(&mut self, id: UsageId) {
        if let Some(at) = self.position(id) {
            self.usages.remove(at);
        }
    }

    /// Marks a batch usage as yielded to an interactive job with the given
    /// PL (and back, by passing `UsageKind::Batch`). The trace event is
    /// timestamped at the last tick (the engine itself has no clock).
    pub fn set_kind(&mut self, id: UsageId, kind: UsageKind) {
        if let Some(at) = self.position(id) {
            self.usages[at].1.kind = kind;
            if let Some(log) = &self.trace {
                log.record(
                    self.last_tick.unwrap_or(SimTime::from_nanos(0)),
                    Event::PriorityChanged {
                        usage: id.0,
                        kind: Arc::clone(&self.kind_labels[kind.index()]),
                    },
                );
            }
        }
    }

    /// The user's current priority value (higher = worse). Unknown users are
    /// at the initial (best) priority.
    pub fn priority(&self, user: &str) -> f64 {
        *self.priorities.get(user).unwrap_or(&self.config.initial)
    }

    /// Applies Equation (1) for one `δt` step at simulated time `now`.
    ///
    /// "User priorities are updated every δt times for each user whose
    /// current priority is different (worse) than the initial priority" —
    /// plus, of course, users currently consuming resources.
    pub fn tick(&mut self, now: SimTime) {
        self.last_tick = Some(now);
        if let Some(log) = &self.trace {
            log.record(
                now,
                Event::FairShareTick {
                    usages: self.usages.len() as u32,
                },
            );
        }
        let dt = self.config.delta_t.as_secs_f64();
        let h = self.config.half_life.as_secs_f64();
        let beta = 0.5f64.powf(dt / h);

        // a_f · r(u,t), summed over the user's running jobs in id order.
        self.load.retain(|_, charge| charge.take().is_some());
        for (_, u) in &self.usages {
            let r = u.cpus as f64 / self.total_cpus as f64;
            let summed =
                |sum: Option<f64>| Some(sum.unwrap_or(0.0) + u.kind.application_factor() * r);
            match self.load.get_mut(&*u.user) {
                Some(sum) => *sum = summed(*sum),
                None => {
                    self.load.insert(Arc::clone(&u.user), summed(None));
                }
            }
        }

        // Decay + charge for every known-or-active user; an active user
        // not known yet starts from the initial priority.
        for (user, charge) in &self.load {
            if charge.is_some() && !self.priorities.contains_key(user) {
                self.priorities
                    .insert(Arc::clone(user), self.config.initial);
            }
        }
        let (initial, epsilon, load) = (self.config.initial, self.config.epsilon, &self.load);
        self.priorities.retain(|user, priority| {
            let charge = load.get(user).copied().flatten().unwrap_or(0.0);
            let next = beta * *priority + (1.0 - beta) * charge;
            *priority = next;
            // Fully restored credits leave the table.
            !((next - initial).abs() < epsilon && charge == 0.0)
        });
    }

    /// Selection for rejection under scarcity: "If there are not enough
    /// available resources, jobs belonging to users with worse priority are
    /// rejected." True when `user` has strictly worse (higher) priority than
    /// some other known user — i.e. they are not among the best claimants.
    pub fn should_reject_under_scarcity(&self, user: &str) -> bool {
        let p = self.priority(user);
        let best = self
            .priorities
            .values()
            .copied()
            .fold(self.config.initial, f64::min);
        p > best + self.config.epsilon
    }

    /// Active usage count (for tests/metrics).
    pub fn active_usages(&self) -> usize {
        self.usages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> FairShare {
        FairShare::new(
            FairShareConfig {
                half_life: SimDuration::from_secs(3_600),
                delta_t: SimDuration::from_secs(60),
                initial: 0.0,
                epsilon: 1e-9,
            },
            100,
        )
    }

    fn tick_n(fs: &mut FairShare, n: u32) {
        for i in 0..n {
            fs.tick(SimTime::from_secs(60 * (i as u64 + 1)));
        }
    }

    #[test]
    fn application_factors_match_section_5_1() {
        assert_eq!(UsageKind::Batch.application_factor(), 1.0);
        assert_eq!(
            UsageKind::Interactive {
                performance_loss: 0
            }
            .application_factor(),
            2.0
        );
        assert_eq!(
            UsageKind::Interactive {
                performance_loss: 40
            }
            .application_factor(),
            1.6
        );
        assert_eq!(
            UsageKind::YieldedBatch {
                performance_loss: 40
            }
            .application_factor(),
            0.4
        );
    }

    #[test]
    fn running_jobs_worsen_priority_toward_equilibrium() {
        let mut fs = engine();
        fs.register("alice", UsageKind::Batch, 50); // r = 0.5
        tick_n(&mut fs, 1);
        let p1 = fs.priority("alice");
        assert!(p1 > 0.0);
        tick_n(&mut fs, 500);
        let p_eq = fs.priority("alice");
        // Equilibrium of the recurrence is a_f·r = 0.5.
        assert!((p_eq - 0.5).abs() < 0.01, "equilibrium {p_eq}");
        assert!(p_eq > p1);
    }

    #[test]
    fn interactive_worsens_faster_than_batch() {
        let mut a = engine();
        a.register("u", UsageKind::Batch, 10);
        let mut b = engine();
        b.register(
            "u",
            UsageKind::Interactive {
                performance_loss: 10,
            },
            10,
        );
        tick_n(&mut a, 10);
        tick_n(&mut b, 10);
        assert!(
            b.priority("u") > a.priority("u"),
            "interactive {} vs batch {}",
            b.priority("u"),
            a.priority("u")
        );
        // Ratio equals the a_f ratio (same r, same dynamics): 1.9.
        let ratio = b.priority("u") / a.priority("u");
        assert!((ratio - 1.9).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn yielded_batch_is_charged_least() {
        let mut fs = engine();
        let id = fs.register("victim", UsageKind::Batch, 10);
        tick_n(&mut fs, 500); // near the batch equilibrium of 0.1
        let before = fs.priority("victim");
        assert!((before - 0.1).abs() < 0.005, "batch equilibrium {before}");
        // An interactive job (PL=20) moves in; the victim yields.
        fs.set_kind(
            id,
            UsageKind::YieldedBatch {
                performance_loss: 20,
            },
        );
        // Equilibrium drops to 0.2·0.1 = 0.02 — the victim's priority now
        // *improves* despite still "running".
        tick_n(&mut fs, 500);
        let after = fs.priority("victim");
        assert!(
            after < before,
            "yielded batch must be charged less: {after} vs {before}"
        );
        assert!((after - 0.02).abs() < 0.005);
    }

    #[test]
    fn idle_users_decay_with_the_half_life() {
        let mut fs = engine();
        let id = fs.register("alice", UsageKind::Batch, 100); // r = 1
        tick_n(&mut fs, 100);
        let peak = fs.priority("alice");
        fs.release(id);
        // One half-life = 60 ticks of 60 s.
        tick_n(&mut fs, 60);
        let halved = fs.priority("alice");
        assert!(
            (halved / peak - 0.5).abs() < 0.01,
            "after one half-life: {halved} vs peak {peak}"
        );
    }

    #[test]
    fn fully_decayed_user_restores_initial_credits() {
        let mut fs = engine();
        let id = fs.register("bob", UsageKind::Batch, 10);
        tick_n(&mut fs, 5);
        fs.release(id);
        tick_n(&mut fs, 5_000);
        assert_eq!(fs.priority("bob"), 0.0);
        assert!(!fs.should_reject_under_scarcity("bob"));
    }

    #[test]
    fn scarcity_rejects_the_worse_user() {
        let mut fs = engine();
        fs.register(
            "hog",
            UsageKind::Interactive {
                performance_loss: 0,
            },
            80,
        );
        tick_n(&mut fs, 20);
        assert!(fs.should_reject_under_scarcity("hog"));
        assert!(!fs.should_reject_under_scarcity("newcomer"));
    }

    #[test]
    fn equal_users_are_not_rejected() {
        let fs = engine();
        assert!(!fs.should_reject_under_scarcity("anyone"));
    }

    #[test]
    fn multiple_jobs_sum_their_charges() {
        let mut fs = engine();
        fs.register("u", UsageKind::Batch, 10);
        fs.register("u", UsageKind::Batch, 10);
        tick_n(&mut fs, 500);
        assert!((fs.priority("u") - 0.2).abs() < 0.01);
        assert_eq!(fs.active_usages(), 2);
    }

    #[test]
    fn ticks_and_kind_changes_are_traced() {
        let log = EventLog::new(16);
        let mut fs = engine();
        fs.set_trace(log.clone());
        let id = fs.register("u", UsageKind::Batch, 10);
        fs.tick(SimTime::from_secs(60));
        fs.set_kind(
            id,
            UsageKind::YieldedBatch {
                performance_loss: 30,
            },
        );
        fs.tick(SimTime::from_secs(120));
        let events = log.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, ["FairShareTick", "PriorityChanged", "FairShareTick"]);
        match &events[1].event {
            Event::PriorityChanged { kind, .. } => assert_eq!(&**kind, "yielded-batch"),
            other => panic!("expected PriorityChanged, got {:?}", other.kind()),
        }
        assert_eq!(events[1].at, SimTime::from_secs(60), "stamped at last tick");
    }

    #[test]
    fn register_and_release_within_one_delta_t_charges_nothing() {
        let mut fs = engine();
        // The usage lives entirely between two ticks: it must leave no
        // stale `Usage` and contribute zero charge at the next tick.
        fs.tick(SimTime::from_secs(60));
        let id = fs.register("u", UsageKind::Batch, 50);
        fs.release(id);
        fs.release(id); // double release is harmless
        assert_eq!(fs.active_usages(), 0);
        fs.tick(SimTime::from_secs(120));
        assert_eq!(fs.priority("u"), 0.0);

        // Surviving exactly one tick charges a_f·r exactly once.
        let id = fs.register("u", UsageKind::Batch, 50);
        fs.tick(SimTime::from_secs(180));
        let once = fs.priority("u");
        fs.release(id);
        fs.set_kind(id, UsageKind::Batch); // no-op on a released id
        assert_eq!(fs.active_usages(), 0);
        let beta = 0.5f64.powf(60.0 / 3_600.0);
        assert!(((once - (1.0 - beta) * 0.5) / once).abs() < 1e-12);
        fs.tick(SimTime::from_secs(240));
        assert!((fs.priority("u") - beta * once).abs() < 1e-15, "decay only");
    }

    #[test]
    fn beta_formula_matches_the_paper() {
        // With δt = h, β must be 0.5 exactly: a single tick moves priority
        // halfway to the charge.
        let mut fs = FairShare::new(
            FairShareConfig {
                half_life: SimDuration::from_secs(60),
                delta_t: SimDuration::from_secs(60),
                initial: 0.0,
                epsilon: 1e-12,
            },
            10,
        );
        fs.register("u", UsageKind::Batch, 10); // a_f·r = 1
        fs.tick(SimTime::from_secs(60));
        assert!((fs.priority("u") - 0.5).abs() < 1e-12);
        fs.tick(SimTime::from_secs(120));
        assert!((fs.priority("u") - 0.75).abs() < 1e-12);
    }
}
