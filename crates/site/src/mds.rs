//! The information system — a Globus MDS (GRIS/GIIS) model.
//!
//! Each site publishes its state to the project index on a refresh interval,
//! so the index's answer is *stale* by up to that interval. That staleness is
//! why CrossBroker's resource selection "contacts each remote site
//! individually and gets the most updated information" after the initial
//! discovery (§6.1) — the two-step cost structure Table I's text reports
//! (discovery ≈ 0.5 s, selection ≈ 3 s for 20 sites).
//!
//! The index stores its view as a columnar [`AdSnapshot`]: each refresh
//! advances the snapshot with the ads that arrived (unchanged sites share
//! the previous `Arc<Ad>`, so a consumer spots a changed site by pointer)
//! and a query response is an `Arc` clone of the snapshot as it stood *when
//! the index serviced the request* — never data that arrived while the
//! reply was on the wire.
//!
//! One flat index covers every site, refreshed by one *sweep* per tick
//! ([`InformationIndex::start_with`]). A [`RefreshWindow`] bounds how many
//! pulls are in flight and how long each site's publication takes; the
//! default window (no limit, no latency) is the paper's index, where every
//! site publishes the instant the tick fires. At a thousand sites a
//! snapshot advance costs per site whose ad changed (the rest keep their
//! allocations), and a slow site's reply is merged on its own when it
//! lands.

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{delivery_outcome, Dir, FaultSchedule, Link, NetError};
use cg_sim::{Receiver, Sim, SimDuration, SimTime, Slab, TypedEvent};

use crate::columns::AdSnapshot;
use crate::membership::{MembershipConfig, MembershipState, MembershipTable, Transition};
use crate::site::Site;

/// Callback invoked (after the index's own state settles) for every
/// membership transition, refresh-driven or reported. The broker hangs
/// its obituary/re-match logic here.
type MembershipObserver = Rc<dyn Fn(&mut Sim, usize, &Transition)>;

/// Who an index query answers: built once by the querier, it is handed the
/// querier's token and the snapshot (or the network error) inside the
/// reply's delivery event, so a query allocates nothing.
pub type QueryReply = Rc<dyn Fn(&mut Sim, u64, Result<Arc<AdSnapshot>, NetError>)>;

/// Refresh-sweep parameters. Each refresh tick opens a *sweep* that pulls
/// at most `fanout` sites concurrently (the same windowing shape as the
/// broker's `live_query_fanout`), so a sweep with latency lasts
/// `ceil(sites / fanout) × RTT` instead of `sites × RTT`. The default is
/// no window and no latency: every site publishes the instant it is
/// pulled, which is the paper's index.
#[derive(Debug, Clone, Default)]
pub struct RefreshWindow {
    /// Maximum concurrent in-flight site pulls per sweep; 0 means no limit.
    pub fanout: usize,
    /// Per-site GRIS→GIIS publication latency; shorter than the site list
    /// means the remainder publish instantaneously.
    pub latency: Vec<SimDuration>,
}

/// In-progress sweep.
struct SweepState {
    /// Sweep generation — replies carry it so a late arrival (after the
    /// tick force-closed this sweep) is recognized and merged separately.
    gen: u64,
    /// Next site to attempt; the sweep attempts sites in index order.
    next: usize,
    /// Attempted sites whose reply has not yet arrived.
    in_flight: usize,
}

/// A query between the request leaving and the reply landing.
struct Query {
    link: Link,
    reply: QueryReply,
    token: u64,
    /// What the index served, once the service step has run.
    served: Option<Arc<AdSnapshot>>,
}

/// Which of the index's own events this is: the `aux` of a typed event
/// for its receiver. The payload is the slot of the pull or query it
/// concerns; a message's arrival carries the link's outcome in `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The refresh tick.
    Tick,
    /// A pull's publication reply lands.
    Pull,
    /// A query's request reached the index (or did not).
    Request,
    /// The index has served a query.
    Service,
    /// A query's reply reached the querier (or did not).
    Reply,
}

impl Step {
    const ALL: [Step; 5] = [
        Step::Tick,
        Step::Pull,
        Step::Request,
        Step::Service,
        Step::Reply,
    ];

    fn event(self, slot: u64) -> TypedEvent {
        TypedEvent::new(self as u16, slot)
    }
}

/// Membership transitions gathered while the index's state moves, handed
/// to the observer once it has settled.
type Transitions = Vec<(usize, Transition)>;

struct Inner {
    sites: Vec<Site>,
    snapshot: Arc<AdSnapshot>,
    refreshed_at: SimTime,
    /// Per-site instant of the last publication that actually arrived;
    /// lags `refreshed_at` for sites whose publish path was down.
    published_at: Vec<SimTime>,
    refresh_interval: SimDuration,
    /// Index-side processing per query, seconds (LDAP search in 2006).
    query_cpu_s: f64,
    refreshes: u64,
    /// Outage windows on each site's GRIS→GIIS publication path; a site
    /// whose path is down at refresh time keeps its stale column and
    /// accrues a missed refresh. Shorter than `sites` means the rest
    /// publish cleanly.
    publish_faults: Vec<FaultSchedule>,
    membership: MembershipTable,
    observer: Option<MembershipObserver>,
    window: RefreshWindow,
    /// What the index's own events reach: refresh ticks, publication
    /// replies and queries. It holds the index through a `Weak`.
    receiver: Receiver,
    /// Site pulls whose reply is on its way, each `(sweep gen, site, the
    /// ad pulled at attempt time)`.
    pulls: Slab<(u64, usize, Arc<Ad>)>,
    /// Queries in flight.
    queries: Slab<Query>,
    sweep: Option<SweepState>,
    /// The open sweep's arrived publications (each the publishing site's
    /// shared ad), buffered until it closes; reused across sweeps.
    arrived: Vec<(usize, Arc<Ad>)>,
    next_sweep_gen: u64,
    /// Total late replies merged after their sweep closed.
    late_merges: u64,
    /// Total in-flight/unattempted sites amnestied at forced sweep closes.
    amnestied: u64,
}

/// The information index every site publishes into. Clones share state.
#[derive(Clone)]
pub struct InformationIndex {
    inner: Rc<RefCell<Inner>>,
}

impl InformationIndex {
    /// Builds the index over `sites` and starts the refresh cycle with the
    /// default window. The first snapshot is taken immediately; subsequent
    /// refreshes run every `refresh_interval`.
    pub fn start(sim: &mut Sim, sites: Vec<Site>, refresh_interval: SimDuration) -> Self {
        InformationIndex::start_with(
            sim,
            sites,
            refresh_interval,
            RefreshWindow::default(),
            Vec::new(),
            MembershipConfig::default(),
        )
    }

    /// Like [`InformationIndex::start`], but with a refresh window,
    /// per-site outage windows on the publication paths and explicit
    /// failure-detector thresholds. A site whose path is down when its
    /// pull is attempted keeps its previous (stale) column, keeps its old
    /// per-site `published_at`, and accrues a missed refresh toward
    /// `Suspect`/`Dead`. A site whose path is down *at boot* gets a
    /// placeholder column (`FreeCpus = 0`, `AcceptsQueued = false`) until
    /// its first publication arrives — so a mass join surfaces as a
    /// genuine per-site delta, not a pre-populated row.
    pub fn start_with(
        sim: &mut Sim,
        sites: Vec<Site>,
        refresh_interval: SimDuration,
        window: RefreshWindow,
        publish_faults: Vec<FaultSchedule>,
        membership: MembershipConfig,
    ) -> Self {
        let now = sim.now();
        let n = sites.len();
        let ads = sites
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if publish_faults.get(i).is_some_and(|f| f.is_down(now)) {
                    Arc::new(unregistered_ad(s.name()))
                } else {
                    s.machine_ad_arc()
                }
            })
            .collect();
        let inner = Rc::new_cyclic(|weak: &Weak<RefCell<Inner>>| {
            let weak = weak.clone();
            let receiver: Receiver = Rc::new(move |sim, event| {
                if let Some(inner) = weak.upgrade() {
                    InformationIndex { inner }.on_event(sim, event);
                }
            });
            RefCell::new(Inner {
                sites,
                snapshot: Arc::new(AdSnapshot::build_shared(ads)),
                refreshed_at: now,
                published_at: vec![now; n],
                refresh_interval,
                query_cpu_s: 0.42,
                refreshes: 0,
                publish_faults,
                membership: MembershipTable::new(n, membership),
                observer: None,
                window,
                receiver,
                pulls: Slab::default(),
                queries: Slab::default(),
                sweep: None,
                arrived: Vec::new(),
                next_sweep_gen: 0,
                late_merges: 0,
                amnestied: 0,
            })
        });
        let index = InformationIndex { inner };
        index.schedule_tick(sim);
        index
    }

    /// The receiver of every event the index schedules for itself.
    fn on_event(&self, sim: &mut Sim, event: TypedEvent) {
        match Step::ALL[usize::from(event.aux)] {
            Step::Tick => {
                // Force-close whatever the previous sweep left open
                // (amnesty for in-flight and unattempted sites), then open
                // a new sweep.
                self.inner.borrow_mut().close_sweep(sim.now());
                self.begin_sweep(sim);
                self.schedule_tick(sim);
            }
            Step::Pull => self.on_reply(sim, event),
            Step::Request | Step::Service | Step::Reply => self.on_query(sim, event),
        }
    }

    fn schedule_tick(&self, sim: &mut Sim) {
        let inner = self.inner.borrow();
        let event = Step::Tick.event(0);
        sim.schedule_event_in(inner.refresh_interval, &inner.receiver, event);
    }

    fn begin_sweep(&self, sim: &mut Sim) {
        {
            let mut inner = self.inner.borrow_mut();
            let gen = inner.next_sweep_gen;
            inner.next_sweep_gen += 1;
            inner.sweep = Some(SweepState {
                gen,
                next: 0,
                in_flight: 0,
            });
        }
        self.pump_sweep(sim, Transitions::new());
    }

    /// Launches site pulls until the fanout window is full; closes the
    /// sweep once every site has been attempted and settled. A site with
    /// no publication latency publishes on the spot. The transitions this
    /// gathers, after `transitions`, reach the observer when it returns,
    /// so one that closes the sweep sees the settled index.
    fn pump_sweep(&self, sim: &mut Sim, mut transitions: Transitions) {
        {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let now = sim.now();
            let fanout = match inner.window.fanout {
                0 => usize::MAX,
                n => n,
            };
            while let Some(sweep) = inner.sweep.as_mut() {
                if sweep.in_flight >= fanout {
                    break;
                }
                let i = sweep.next;
                if i == inner.sites.len() {
                    // Every site attempted: close once the last reply settles.
                    if sweep.in_flight == 0 {
                        inner.close_sweep(now);
                    }
                    break;
                }
                sweep.next += 1;
                let tr = if inner.publish_faults.get(i).is_some_and(|f| f.is_down(now)) {
                    // Down at attempt time: a genuine miss, counted
                    // immediately — no reply will ever arrive.
                    inner.membership.note_refresh_missed(i, now)
                } else {
                    let ad = inner.sites[i].machine_ad_arc();
                    match inner.window.latency.get(i) {
                        Some(&latency) if latency > SimDuration::ZERO => {
                            sweep.in_flight += 1;
                            let slot = inner.pulls.insert((sweep.gen, i, ad));
                            let event = Step::Pull.event(slot);
                            sim.schedule_event_in(latency, &inner.receiver, event);
                            None
                        }
                        _ => {
                            inner.arrived.push((i, ad));
                            inner.published_at[i] = now;
                            inner.membership.note_refresh_ok(i, now)
                        }
                    }
                };
                transitions.extend(tr.map(|tr| (i, tr)));
            }
        }
        self.notify(sim, transitions);
    }

    /// The reply event of a pull: the ad it carries is the one pulled at
    /// attempt time, whenever it lands.
    fn on_reply(&self, sim: &mut Sim, event: TypedEvent) {
        let pull = self.inner.borrow_mut().pulls.remove(event.payload);
        let (gen, i, ad) = pull.expect("one reply per pull");
        self.publish_arrived(sim, gen, i, ad);
    }

    /// A site's publication reply lands. If its sweep is still open the
    /// ad is buffered for the sweep's single `apply_delta` and the reply's
    /// transition goes to the pump it restarts; if the tick already
    /// force-closed that sweep the reply is *late* — merged immediately as
    /// its own one-site delta. Either way the reply proves the path is
    /// healthy, so the failure detector records a clean refresh (the
    /// late-reply amnesty satellite).
    fn publish_arrived(&self, sim: &mut Sim, gen: u64, i: usize, ad: Arc<Ad>) {
        let (transition, late) = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let now = sim.now();
            inner.published_at[i] = now;
            let tr = inner.membership.note_refresh_ok(i, now);
            match inner.sweep.as_mut().filter(|s| s.gen == gen) {
                Some(sweep) => {
                    sweep.in_flight -= 1;
                    inner.arrived.push((i, ad));
                    (tr, false)
                }
                None => {
                    inner.snapshot = Arc::new(inner.snapshot.apply_delta(&[(i, ad)]));
                    inner.late_merges += 1;
                    (tr, true)
                }
            }
        };
        let transitions = transition.map(|tr| (i, tr)).into_iter().collect();
        if late {
            self.notify(sim, transitions);
        } else {
            self.pump_sweep(sim, transitions);
        }
    }

    /// Total late replies merged after their sweep force-closed.
    pub fn late_merges(&self) -> u64 {
        self.inner.borrow().late_merges
    }

    /// Total site-sweeps amnestied (reply in flight or unattempted at a
    /// forced close) — each of these would have been a missed refresh
    /// under the old accounting.
    pub fn amnestied(&self) -> u64 {
        self.inner.borrow().amnestied
    }

    /// Registers the single membership observer, replacing any previous
    /// one. Invoked once per transition, after the index's own state has
    /// settled, for both refresh-driven and reported observations.
    pub fn set_membership_observer(
        &self,
        observer: impl Fn(&mut Sim, usize, &Transition) + 'static,
    ) {
        self.inner.borrow_mut().observer = Some(Rc::new(observer));
    }

    /// Feeds a live-query outcome at `site_index` into the failure
    /// detector (`ok = false` covers both errored and timed-out RPCs) and
    /// notifies the observer of any resulting transition.
    pub fn report_query(&self, sim: &mut Sim, site_index: usize, ok: bool) {
        let transition = {
            let mut inner = self.inner.borrow_mut();
            let now = sim.now();
            if ok {
                inner.membership.note_query_ok(site_index, now)
            } else {
                inner.membership.note_query_failure(site_index, now)
            }
        };
        if let Some(tr) = transition {
            self.notify(sim, vec![(site_index, tr)]);
        }
    }

    fn notify(&self, sim: &mut Sim, transitions: Transitions) {
        if transitions.is_empty() {
            return;
        }
        let observer = self.inner.borrow().observer.clone();
        if let Some(observer) = observer {
            for (i, tr) in transitions {
                observer(sim, i, &tr);
            }
        }
    }

    /// The site's current membership state.
    pub fn membership_state(&self, site_index: usize) -> MembershipState {
        self.inner.borrow().membership.state(site_index)
    }

    /// Crash recovery: seeds a site's membership state (by name) from a
    /// journal fold. Unknown names are ignored; no transition is
    /// notified — restoration is bookkeeping, not an observation.
    pub fn restore_membership(&self, site: &str, state: MembershipState, now: SimTime) {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.sites.iter().position(|s| s.name() == site) {
            inner.membership.restore(i, state, now);
        }
    }

    /// May the broker lease or dispatch onto this site right now?
    pub fn is_schedulable(&self, site_index: usize) -> bool {
        self.inner.borrow().membership.is_schedulable(site_index)
    }

    /// Instant of the site's last publication that actually arrived.
    pub fn published_at(&self, site_index: usize) -> SimTime {
        self.inner.borrow().published_at[site_index]
    }

    /// Age of the site's column at `now` — how stale matchmaking data for
    /// this site is. Zero right after a clean refresh; grows across
    /// missed publications.
    pub fn staleness(&self, site_index: usize, now: SimTime) -> SimDuration {
        now.saturating_since(self.inner.borrow().published_at[site_index])
    }

    /// When the last refresh cycle ran (whether or not every site's
    /// publication arrived).
    pub fn refreshed_at(&self) -> SimTime {
        self.inner.borrow().refreshed_at
    }

    /// Queries the index over `link` (the broker→MDS path). The response
    /// carries every site record; its size scales with the number of sites.
    ///
    /// The delivered snapshot is the index's state at *service time* — the
    /// instant the MDS finished processing the request and serialized its
    /// answer. A refresh that fires while the response is in flight is
    /// invisible to this query (the staleness model the module header
    /// documents), and `resp_bytes` is sized from that same snapshot.
    ///
    /// `reply` is called with `token` inside the reply's delivery event, or
    /// inside the failed leg's. Three events, each typed for the index's
    /// receiver with the query in a slab slot: the request's arrival, the
    /// end of the service time, and the reply's arrival.
    pub fn query(&self, sim: &mut Sim, link: &Link, reply: &QueryReply, token: u64) {
        let (receiver, slot) = {
            let mut inner = self.inner.borrow_mut();
            let slot = inner.queries.insert(Query {
                link: link.clone(),
                reply: Rc::clone(reply),
                token,
                served: None,
            });
            (Rc::clone(&inner.receiver), slot)
        };
        let request = Step::Request.event(slot);
        link.send_event(sim, Dir::AToB, 250, SimDuration::ZERO, &receiver, request);
    }

    /// Queries in flight: zero once a drained world is idle.
    pub fn queries_in_flight(&self) -> usize {
        self.inner.borrow().queries.len()
    }

    fn on_query(&self, sim: &mut Sim, event: TypedEvent) {
        let slot = event.payload;
        let step = Step::ALL[usize::from(event.aux)];
        let outcome = delivery_outcome(event);
        if step == Step::Service {
            // Service completes here: snapshot what the MDS can actually
            // serve, before the reply hits the wire.
            let (receiver, link, resp_bytes) = {
                let mut inner = self.inner.borrow_mut();
                let snap = Arc::clone(&inner.snapshot);
                let resp_bytes = 300 + 900 * snap.len() as u64; // LDAP entries
                let receiver = Rc::clone(&inner.receiver);
                let query = inner.queries.get_mut(slot).expect("a query in flight");
                query.served = Some(snap);
                (receiver, query.link.clone(), resp_bytes)
            };
            let reply = Step::Reply.event(slot);
            link.send_event(
                sim,
                Dir::BToA,
                resp_bytes,
                SimDuration::ZERO,
                &receiver,
                reply,
            );
            return;
        }
        if step == Step::Request && outcome.is_ok() {
            let (receiver, service) = {
                let inner = self.inner.borrow();
                let service = SimDuration::from_secs_f64(inner.query_cpu_s);
                (Rc::clone(&inner.receiver), service)
            };
            sim.schedule_event_in(service, &receiver, Step::Service.event(slot));
            return;
        }
        let query = self.inner.borrow_mut().queries.remove(slot);
        let query = query.expect("a query in flight");
        let answer = outcome.map(|()| query.served.expect("served before the reply"));
        (query.reply)(sim, query.token, answer);
    }

    /// Number of completed refresh cycles.
    pub fn refreshes(&self) -> u64 {
        self.inner.borrow().refreshes
    }

    /// The current columnar snapshot, without network cost — the shape
    /// matchmaking consumes directly. An `Arc` clone, not a table copy.
    pub fn snapshot_arc(&self) -> Arc<AdSnapshot> {
        Arc::clone(&self.inner.borrow().snapshot)
    }
}

impl Inner {
    /// Closes the open sweep (if any): applies the buffered arrivals as
    /// one delta, stamps the refresh cycle, and amnesties whatever was
    /// still in flight or unattempted — those sites are neither refreshed
    /// nor missed this cycle.
    fn close_sweep(&mut self, now: SimTime) {
        let Some(sweep) = self.sweep.take() else {
            return;
        };
        self.amnestied += (sweep.in_flight + self.sites.len() - sweep.next) as u64;
        self.snapshot = Arc::new(self.snapshot.apply_delta(&self.arrived));
        self.arrived.clear();
        self.refreshed_at = now;
        self.refreshes += 1;
    }
}

/// Placeholder column for a site that has never published: named but
/// unschedulable, so its first real publication is a genuine delta.
fn unregistered_ad(name: &str) -> Ad {
    let mut ad = Ad::new();
    ad.set_str("Site", name)
        .set_int("FreeCpus", 0)
        .set_bool("AcceptsQueued", false);
    ad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrms::{LocalJobSpec, Policy};
    use crate::site::{Site, SiteConfig};
    use cg_jdl::Value;
    use cg_net::LinkProfile;

    fn test_site(sim: &mut Sim, name: &str, nodes: usize) -> Site {
        let _ = sim;
        Site::new(SiteConfig {
            name: name.into(),
            nodes,
            policy: Policy::Fifo,
            ..SiteConfig::default()
        })
    }

    #[test]
    fn index_snapshots_go_stale_until_refresh() {
        let mut sim = Sim::new(1);
        let site = test_site(&mut sim, "uab", 2);
        let index =
            InformationIndex::start(&mut sim, vec![site.clone()], SimDuration::from_secs(300));
        // Initial snapshot: 2 free CPUs.
        assert_eq!(
            index.snapshot_arc().ad(0).get("FreeCpus").unwrap(),
            &Value::Int(2)
        );
        // Occupy a node; the index must NOT see it until refresh.
        site.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10_000)),
            |_, _, _| {},
        );
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(
            index.snapshot_arc().ad(0).get("FreeCpus").unwrap(),
            &Value::Int(2),
            "stale value before refresh"
        );
        sim.run_until(SimTime::from_secs(301));
        assert_eq!(
            index.snapshot_arc().ad(0).get("FreeCpus").unwrap(),
            &Value::Int(1),
            "fresh value after refresh"
        );
        assert_eq!(index.refreshes(), 1);
    }

    #[test]
    fn refresh_gives_a_new_arc_only_to_changed_sites() {
        let mut sim = Sim::new(7);
        let busy = test_site(&mut sim, "busy", 2);
        let idle = test_site(&mut sim, "idle", 2);
        let index = InformationIndex::start(
            &mut sim,
            vec![busy.clone(), idle],
            SimDuration::from_secs(300),
        );
        let s0 = index.snapshot_arc();

        busy.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10_000)),
            |_, _, _| {},
        );
        sim.run_until(SimTime::from_secs(301));
        let s1 = index.snapshot_arc();
        assert_eq!(index.refreshes(), 1);
        assert!(
            !Arc::ptr_eq(s0.ad_arc(0), s1.ad_arc(0)),
            "the site whose ad changed publishes a new allocation"
        );
        assert_eq!(s1.free_cpus(0), 1);
        assert!(
            Arc::ptr_eq(s0.ad_arc(1), s1.ad_arc(1)),
            "idle site's ad is shared across refreshes"
        );
    }

    #[test]
    fn a_down_publish_path_keeps_the_stale_column_and_drives_membership() {
        let mut sim = Sim::new(5);
        let flaky = test_site(&mut sim, "flaky", 2);
        let steady = test_site(&mut sim, "steady", 2);
        // flaky's publication path is down for the first three refreshes
        // (t=300, 600, 900), back for t=1200 onward.
        let faults =
            FaultSchedule::from_windows(vec![(SimTime::from_secs(200), SimTime::from_secs(1000))]);
        let index = InformationIndex::start_with(
            &mut sim,
            vec![flaky.clone(), steady],
            SimDuration::from_secs(300),
            RefreshWindow::default(),
            vec![faults],
            MembershipConfig::default(),
        );
        let seen: Rc<RefCell<Vec<(usize, Transition)>>> = Rc::new(RefCell::new(Vec::new()));
        let s = Rc::clone(&seen);
        index.set_membership_observer(move |_, i, tr| s.borrow_mut().push((i, *tr)));

        // Occupy a node so flaky's ad actually changes under the outage.
        flaky.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10_000)),
            |_, _, _| {},
        );
        sim.run_until(SimTime::from_secs(901));
        // Three missed refreshes: Suspect, column still showing the
        // initial 2 free CPUs.
        assert_eq!(index.membership_state(0), MembershipState::Suspect);
        assert!(!index.is_schedulable(0));
        assert_eq!(index.snapshot_arc().free_cpus(0), 2, "column is stale");
        assert_eq!(index.published_at(0), SimTime::ZERO);
        assert_eq!(
            index.staleness(0, SimTime::from_secs(900)),
            SimDuration::from_secs(900)
        );
        assert_eq!(index.membership_state(1), MembershipState::Alive);
        assert_eq!(index.staleness(1, index.refreshed_at()), SimDuration::ZERO);

        // Path restored: the next refresh publishes, rejoins, and the
        // column catches up.
        sim.run_until(SimTime::from_secs(1201));
        assert_eq!(index.membership_state(0), MembershipState::Rejoined);
        assert!(index.is_schedulable(0));
        assert_eq!(index.snapshot_arc().free_cpus(0), 1);
        // Probation: two clean refreshes promote back to Alive.
        sim.run_until(SimTime::from_secs(1801));
        assert_eq!(index.membership_state(0), MembershipState::Alive);

        let seen = seen.borrow();
        assert!(
            matches!(
                seen.as_slice(),
                [
                    (1, Transition::Joined),
                    (0, Transition::Suspected { .. }),
                    (0, Transition::Rejoined { .. }),
                    (0, Transition::Stabilized),
                ]
            ),
            "{seen:?}"
        );
    }

    #[test]
    fn reported_query_failures_reach_the_observer() {
        let mut sim = Sim::new(6);
        let site = test_site(&mut sim, "x", 1);
        let index = InformationIndex::start_with(
            &mut sim,
            vec![site],
            SimDuration::from_secs(300),
            RefreshWindow::default(),
            Vec::new(),
            MembershipConfig {
                suspect_after_failed_queries: 2,
                ..MembershipConfig::default()
            },
        );
        let seen: Rc<RefCell<Vec<(usize, Transition)>>> = Rc::new(RefCell::new(Vec::new()));
        let s = Rc::clone(&seen);
        index.set_membership_observer(move |_, i, tr| s.borrow_mut().push((i, *tr)));
        index.report_query(&mut sim, 0, false);
        index.report_query(&mut sim, 0, false);
        assert_eq!(index.membership_state(0), MembershipState::Suspect);
        index.report_query(&mut sim, 0, true);
        assert_eq!(index.membership_state(0), MembershipState::Rejoined);
        assert!(matches!(
            seen.borrow().as_slice(),
            [
                (0, Transition::Suspected { .. }),
                (0, Transition::Rejoined { .. })
            ]
        ));
    }

    #[test]
    fn query_cost_is_around_half_a_second_on_the_mds_path() {
        // Paper §6.1: discovery "takes around 0.5 seconds" with the index in
        // Germany and the broker in Spain.
        let mut sim = Sim::new(2);
        let sites: Vec<Site> = (0..20)
            .map(|i| test_site(&mut sim, &format!("site{i}"), 4))
            .collect();
        let index = InformationIndex::start(&mut sim, sites, SimDuration::from_secs(300));
        let link = Link::new(LinkProfile::wan_mds());
        let done = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done);
        let reply: QueryReply = Rc::new(move |sim, _, r| {
            assert_eq!(r.unwrap().len(), 20);
            *d.borrow_mut() = Some(sim.now().as_secs_f64());
        });
        index.query(&mut sim, &link, &reply, 0);
        sim.run_until(SimTime::from_secs(10));
        let t = done.borrow().unwrap();
        assert!(
            (0.2..0.9).contains(&t),
            "discovery took {t}s, expected ~0.5"
        );
    }

    #[test]
    fn query_fails_over_dead_link() {
        let mut sim = Sim::new(3);
        let site = test_site(&mut sim, "x", 1);
        let index = InformationIndex::start(&mut sim, vec![site], SimDuration::from_secs(300));
        let faults =
            cg_net::FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(100))]);
        let link = Link::with_faults(LinkProfile::wan_mds(), faults);
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let reply: QueryReply = Rc::new(move |_, _, r| {
            *g.borrow_mut() = Some(r.is_err());
        });
        index.query(&mut sim, &link, &reply, 0);
        sim.run_until(SimTime::from_secs(50));
        assert_eq!(*got.borrow(), Some(true));
    }

    #[test]
    fn windowed_refresh_converges_with_bounded_fanout() {
        // Sweep opens at t=60. A window of two pulls one pair per 1 s
        // wave: waves at 60, 61, 62, last replies land at 63 — not
        // 6 × RTT serial. No window puts every pull in flight at once.
        for (fanout, closes_s) in [(2, 63), (0, 61)] {
            let mut sim = Sim::new(11);
            let sites: Vec<Site> = (0..6)
                .map(|i| test_site(&mut sim, &format!("s{i}"), 2))
                .collect();
            let busy = sites[0].clone();
            let index = InformationIndex::start_with(
                &mut sim,
                sites,
                SimDuration::from_secs(60),
                RefreshWindow {
                    fanout,
                    latency: vec![SimDuration::from_secs(1); 6],
                },
                Vec::new(),
                MembershipConfig::default(),
            );
            busy.lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(10_000)),
                |_, _, _| {},
            );
            sim.run_until(SimTime::from_secs(64));
            assert_eq!(index.refreshes(), 1, "fanout {fanout}");
            assert_eq!(
                index.refreshed_at(),
                SimTime::from_secs(closes_s),
                "fanout {fanout}"
            );
            let snap = index.snapshot_arc();
            assert_eq!(snap.free_cpus(0), 1, "sweep captured the occupied node");
            for i in 0..6 {
                assert_eq!(index.membership_state(i), MembershipState::Alive);
            }
        }
    }

    #[test]
    fn a_transition_that_closes_the_sweep_sees_the_settled_index() {
        // Site 1's publication path is down from 30 s to 200 s, so the
        // sweeps at 60 and 120 s miss it into `Suspect`; at 240 s it
        // publishes again, and its publication is the last of the sweep.
        // The observer, handed its `Rejoined`, must already see that
        // publication in the snapshot and the sweep's instant as the
        // refresh. Under the window, site 1's reply lands last (2 s
        // against site 0's 1 s) and its arrival closes the sweep.
        let no_window = RefreshWindow::default();
        let slow_last = RefreshWindow {
            fanout: 2,
            latency: vec![SimDuration::from_secs(1), SimDuration::from_secs(2)],
        };
        for (window, closes_s) in [(no_window, 240), (slow_last, 242)] {
            let mut sim = Sim::new(16);
            let steady = test_site(&mut sim, "steady", 2);
            let flaky = test_site(&mut sim, "flaky", 2);
            let faults = FaultSchedule::from_windows(vec![(
                SimTime::from_secs(30),
                SimTime::from_secs(200),
            )]);
            let index = InformationIndex::start_with(
                &mut sim,
                vec![steady, flaky.clone()],
                SimDuration::from_secs(60),
                window,
                vec![FaultSchedule::none(), faults],
                MembershipConfig::default(),
            );
            // Occupy a node so the publication that rejoins carries news.
            flaky.lrms().submit(
                &mut sim,
                LocalJobSpec::simple(SimDuration::from_secs(10_000)),
                |_, _, _| {},
            );
            let rejoined = Rc::new(RefCell::new(None));
            let (r, idx) = (Rc::clone(&rejoined), index.clone());
            index.set_membership_observer(move |sim, i, tr| {
                if matches!(tr, Transition::Rejoined { .. }) {
                    let free = idx.snapshot_arc().free_cpus(i);
                    *r.borrow_mut() = Some((i, sim.now(), free, idx.refreshed_at()));
                }
            });
            sim.run_until(SimTime::from_secs(200));
            assert_eq!(index.membership_state(1), MembershipState::Suspect);
            assert_eq!(index.snapshot_arc().free_cpus(1), 2, "column is stale");
            sim.run_until(SimTime::from_secs(250));
            let at = SimTime::from_secs(closes_s);
            assert_eq!(
                *rejoined.borrow(),
                Some((1, at, 1, at)),
                "closes at {closes_s} s"
            );
        }
    }

    #[test]
    fn in_flight_replies_are_amnestied_not_counted_as_missed() {
        // Satellite regression: a site whose reply is merely in flight when
        // the tick force-closes the sweep must NOT accrue a missed refresh.
        // Site 0's publication takes 90 s against a 60 s interval, so every
        // sweep closes with its reply still in the air; under the old
        // accounting (amnestied == missed) it would cross
        // `suspect_after_missed_refreshes = 2` by the third tick and sit in
        // `Suspect` forever despite a perfectly healthy path.
        let mut sim = Sim::new(12);
        let slow = test_site(&mut sim, "slow", 2);
        let fast = test_site(&mut sim, "fast", 2);
        let index = InformationIndex::start_with(
            &mut sim,
            vec![slow, fast],
            SimDuration::from_secs(60),
            RefreshWindow {
                fanout: 4,
                latency: vec![SimDuration::from_secs(90), SimDuration::from_secs(1)],
            },
            Vec::new(),
            MembershipConfig::default(),
        );
        let seen: Rc<RefCell<Vec<(usize, Transition)>>> = Rc::new(RefCell::new(Vec::new()));
        let s = Rc::clone(&seen);
        index.set_membership_observer(move |_, i, tr| s.borrow_mut().push((i, *tr)));
        sim.run_until(SimTime::from_secs(400));

        let threshold = u64::from(MembershipConfig::default().suspect_after_missed_refreshes);
        assert!(
            index.amnestied() >= threshold,
            "enough amnestied sweeps ({}) that the old missed-refresh \
             accounting would have suspected the site",
            index.amnestied()
        );
        assert_eq!(index.membership_state(0), MembershipState::Alive);
        assert!(
            seen.borrow()
                .iter()
                .all(|(_, tr)| !matches!(tr, Transition::Suspected { .. })),
            "no site may be suspected under slow-but-healthy links: {:?}",
            seen.borrow()
        );
        // The late replies still land: each merges as its own delta and
        // refreshes the failure detector and the column's publish stamp.
        assert!(
            index.late_merges() >= 2,
            "late merges: {}",
            index.late_merges()
        );
        assert_eq!(index.published_at(0), SimTime::from_secs(390));
        assert_eq!(index.snapshot_arc().free_cpus(0), 2);
    }

    #[test]
    fn late_replies_merge_the_ad_pulled_at_attempt_time() {
        // Publication takes 90 s against a 60 s interval: the sweeps opened
        // at 60 s and 120 s both close with their pull in the air, and each
        // reply lands after the next pull has gone out. Between the two
        // pulls a job takes a node, so they carry different ads; each late
        // merge must carry the ad of its own pull, not the site's ad at
        // arrival.
        let mut sim = Sim::new(15);
        let site = test_site(&mut sim, "slow", 2);
        let index = InformationIndex::start_with(
            &mut sim,
            vec![site.clone()],
            SimDuration::from_secs(60),
            RefreshWindow {
                fanout: 4,
                latency: vec![SimDuration::from_secs(90)],
            },
            Vec::new(),
            MembershipConfig::default(),
        );
        // The index around each expected merge: its late-merge count and
        // site 0's column, a millisecond before and a millisecond after.
        let sampled = Rc::new(RefCell::new(Vec::<(u64, Arc<Ad>)>::new()));
        for at_s in [150, 210] {
            for at_ms in [at_s * 1000 - 1, at_s * 1000 + 1] {
                let (sampled, index) = (Rc::clone(&sampled), index.clone());
                sim.schedule_at(SimTime::from_nanos(at_ms * 1_000_000), move |_| {
                    let ad = Arc::clone(index.snapshot_arc().ad_arc(0));
                    sampled.borrow_mut().push((index.late_merges(), ad));
                });
            }
        }
        // The ad each sweep pulled: read right after the tick that opened
        // it, with nothing in between to change the site's state.
        let pulled: Rc<RefCell<Vec<Arc<Ad>>>> = Rc::default();
        for at in [60, 120] {
            let (p, site) = (Rc::clone(&pulled), site.clone());
            sim.schedule_at(SimTime::from_secs(at), move |_| {
                p.borrow_mut().push(site.machine_ad_arc());
            });
        }
        let busy = site.clone();
        sim.schedule_at(SimTime::from_secs(100), move |sim| {
            busy.lrms().submit(
                sim,
                LocalJobSpec::simple(SimDuration::from_secs(10_000)),
                |_, _, _| {},
            );
        });
        sim.run_until(SimTime::from_secs(215));

        let pulled = pulled.borrow();
        let free = |ad: &Ad| ad.get("FreeCpus").and_then(Value::as_i64);
        assert_eq!((free(&pulled[0]), free(&pulled[1])), (Some(2), Some(1)));
        let sampled = sampled.borrow();
        assert_eq!(
            sampled
                .iter()
                .map(|(merges, _)| *merges)
                .collect::<Vec<_>>(),
            [0, 1, 1, 2],
            "one late merge lands at 150 s and one at 210 s"
        );
        for ((_, ad), pull) in [&sampled[1], &sampled[3]].into_iter().zip(pulled.iter()) {
            assert!(Arc::ptr_eq(ad, pull), "merged {ad:?}, pulled {pull:?}");
        }
        assert_eq!(index.late_merges(), 2);
    }

    #[test]
    fn windowed_mode_still_suspects_a_down_publish_path() {
        // Amnesty is only for in-flight replies; a path that is down at
        // attempt time counts a miss immediately, as it does with no
        // window.
        let mut sim = Sim::new(13);
        let dark = test_site(&mut sim, "dark", 2);
        let lit = test_site(&mut sim, "lit", 2);
        let faults =
            FaultSchedule::from_windows(vec![(SimTime::from_secs(30), SimTime::from_secs(10_000))]);
        let index = InformationIndex::start_with(
            &mut sim,
            vec![dark, lit],
            SimDuration::from_secs(60),
            RefreshWindow {
                fanout: 4,
                latency: vec![SimDuration::from_secs(1); 2],
            },
            vec![faults],
            MembershipConfig::default(),
        );
        sim.run_until(SimTime::from_secs(200));
        assert_eq!(index.membership_state(0), MembershipState::Suspect);
        assert!(!index.is_schedulable(0));
        assert_eq!(index.membership_state(1), MembershipState::Alive);
        assert_eq!(index.amnestied(), 0);
    }

    #[test]
    fn dark_at_boot_sites_hold_a_placeholder_until_their_first_publication() {
        // The mass-join foundation: a site whose path is down at t=0 boots
        // as an unschedulable placeholder column, and its first real
        // publication surfaces as a genuine one-site delta — whatever the
        // window.
        let windowed = RefreshWindow {
            fanout: 4,
            latency: vec![SimDuration::from_secs(1); 2],
        };
        for window in [windowed, RefreshWindow::default()] {
            let mut sim = Sim::new(14);
            let joiner = test_site(&mut sim, "joiner", 4);
            let steady = test_site(&mut sim, "steady", 2);
            let faults =
                FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(100))]);
            let index = InformationIndex::start_with(
                &mut sim,
                vec![joiner, steady],
                SimDuration::from_secs(60),
                window,
                vec![faults],
                MembershipConfig::default(),
            );
            let boot = index.snapshot_arc();
            assert_eq!(boot.free_cpus(0), 0, "placeholder until first publish");
            assert!(!boot.accepts_queued(0));
            assert_eq!(boot.free_cpus(1), 2, "up-at-boot site has its real ad");

            // t=60 sweep: joiner's path still down — placeholder held.
            sim.run_until(SimTime::from_secs(65));
            let held = index.snapshot_arc();
            assert_eq!(held.free_cpus(0), 0);

            // t=120 sweep: path restored, first publication lands.
            sim.run_until(SimTime::from_secs(125));
            let joined = index.snapshot_arc();
            assert_eq!(joined.free_cpus(0), 4);
            assert!(joined.accepts_queued(0));
            assert!(!Arc::ptr_eq(held.ad_arc(0), joined.ad_arc(0)));
            assert!(
                Arc::ptr_eq(held.ad_arc(1), joined.ad_arc(1)),
                "the join is a one-site delta, not a full-snapshot invalidation"
            );
        }
    }

    #[test]
    fn refresh_during_response_transit_does_not_leak_into_the_reply() {
        // Regression for the mid-flight freshness leak: the old query path
        // cloned the records when the response *arrived*, so a refresh that
        // fired while the reply was on the wire leaked data newer than the
        // MDS could have served.
        //
        // Timeline on a deliberately slow link (1 kbps, no jitter):
        //   request (250 B)  ≈ 2.0 s transit  → service 0.42 s ends ≈ 2.4 s
        //   response (1200 B) ≈ 9.6 s transit → delivery ≈ 12 s
        // A 10 000 s job submitted at t=0 occupies a node at ~1.5 s
        // (dispatch latency), and refreshes at 5 s and 10 s publish
        // FreeCpus = 1 — both land between service and delivery.
        let mut sim = Sim::new(9);
        let site = test_site(&mut sim, "uab", 2);
        let index =
            InformationIndex::start(&mut sim, vec![site.clone()], SimDuration::from_secs(5));
        site.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10_000)),
            |_, _, _| {},
        );
        let link = Link::new(LinkProfile {
            name: "drip".into(),
            base_latency_s: 0.0,
            jitter_s: 0.0,
            bandwidth_bps: 1_000.0,
            loss_prob: 0.0,
            per_msg_overhead_s: 0.0,
        });
        let got = Rc::new(RefCell::new(None));
        let g = Rc::clone(&got);
        let idx = index.clone();
        let reply: QueryReply = Rc::new(move |sim, _, r| {
            let snap = r.unwrap();
            *g.borrow_mut() = Some((sim.now().as_secs_f64(), snap.free_cpus(0), idx.refreshes()));
        });
        index.query(&mut sim, &link, &reply, 0);
        sim.run_until(SimTime::from_secs(60));
        let (t, free, refreshes) = got.borrow().expect("query must complete");
        assert!(t > 10.0, "response delivery at {t}s should be after 10s");
        assert!(
            refreshes >= 2,
            "refreshes must have fired mid-flight (got {refreshes})"
        );
        assert_eq!(
            free, 2,
            "response must show the service-time snapshot (FreeCpus=2), \
             not the refreshed value that arrived while the reply was on the wire"
        );
    }
}
