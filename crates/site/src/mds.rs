//! The information system — a Globus MDS (GRIS/GIIS) model.
//!
//! Each site publishes its state to the project index on a refresh interval,
//! so the index's answer is *stale* by up to that interval. That staleness is
//! why CrossBroker's resource selection "contacts each remote site
//! individually and gets the most updated information" after the initial
//! discovery (§6.1) — the two-step cost structure Table I's text reports
//! (discovery ≈ 0.5 s, selection ≈ 3 s for 20 sites).
//!
//! The index stores its view as an epoch-tagged columnar [`AdSnapshot`]:
//! each refresh advances the snapshot with per-site deltas (unchanged sites
//! share the previous `Arc<Ad>` and keep their epoch) and a query response
//! is an `Arc` clone of the snapshot as it stood *when the index serviced
//! the request* — never data that arrived while the reply was on the wire.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cg_jdl::Ad;
use cg_net::{Dir, FaultSchedule, Link, NetError};
use cg_sim::{Sim, SimDuration, SimTime};

use crate::columns::AdSnapshot;
use crate::membership::{MembershipConfig, MembershipState, MembershipTable, Transition};
use crate::site::Site;

/// Callback invoked (after the index's own state settles) for every
/// membership transition, refresh-driven or reported. The broker hangs
/// its obituary/re-match logic here.
type MembershipObserver = Rc<dyn Fn(&mut Sim, usize, &Transition)>;

/// Callback invoked after every snapshot advance — a sweep close (legacy
/// or windowed) or a late-reply merge — with the advance's accounting and
/// the snapshot as it stands afterwards. The GIIS aggregation layer hangs
/// its delta propagation here.
type SweepObserver = Rc<dyn Fn(&mut Sim, &SweepReport, &Arc<AdSnapshot>)>;

/// Windowed-refresh parameters: instead of the legacy instantaneous walk,
/// each refresh tick opens a *sweep* that pulls at most `fanout` sites
/// concurrently (the same windowing shape as the broker's
/// `live_query_fanout`), so sweep duration scales as
/// `ceil(sites / fanout) × RTT` instead of `sites × RTT`.
#[derive(Debug, Clone)]
pub struct RefreshWindow {
    /// Maximum concurrent in-flight site pulls per sweep (min 1).
    pub fanout: usize,
    /// Per-site GRIS→GIIS publication latency; shorter than the site list
    /// means the remainder publish instantaneously.
    pub latency: Vec<SimDuration>,
}

impl Default for RefreshWindow {
    fn default() -> Self {
        RefreshWindow {
            fanout: 4,
            latency: Vec::new(),
        }
    }
}

/// Accounting for one snapshot advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepReport {
    /// Sites whose publication arrived and was applied in this advance.
    pub refreshed: usize,
    /// Sites whose publish path was down at attempt time — these accrue
    /// a missed refresh toward `Suspect`.
    pub missed: usize,
    /// Sites whose reply was merely in flight (or not yet attempted) when
    /// the tick closed the sweep — amnestied: neither refreshed nor
    /// missed, so a slow-but-healthy link never drifts toward `Suspect`.
    pub amnestied: usize,
    /// True when this advance merged a late reply from an already-closed
    /// sweep rather than closing a sweep itself.
    pub late: bool,
}

/// In-progress windowed sweep.
struct SweepState {
    /// Sweep generation — replies carry it so a late arrival (after the
    /// tick force-closed this sweep) is recognized and merged separately.
    gen: u64,
    /// Sites not yet attempted, in index order.
    pending: std::collections::VecDeque<usize>,
    /// Attempted sites whose reply has not yet arrived.
    in_flight: usize,
    /// Arrived publications (each the publishing site's shared ad),
    /// buffered until the sweep closes.
    arrived: Vec<(usize, Arc<Ad>)>,
    /// Sites whose path was down at attempt time.
    missed: usize,
}

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
    /// `Some` puts the refresh cycle in windowed mode.
    window: Option<RefreshWindow>,
    sweep: Option<SweepState>,
    next_sweep_gen: u64,
    /// Total late replies merged after their sweep closed.
    late_merges: u64,
    /// Total in-flight/unattempted sites amnestied at forced sweep closes.
    amnestied: u64,
    sweep_observer: Option<SweepObserver>,
}

/// The aggregated index (GIIS). Clones share state.
#[derive(Clone)]
pub struct InformationIndex {
    inner: Rc<RefCell<Inner>>,
}

impl InformationIndex {
    /// Builds the index over `sites` and starts the refresh cycle. The first
    /// snapshot is taken immediately; subsequent refreshes run every
    /// `refresh_interval`.
    pub fn start(sim: &mut Sim, sites: Vec<Site>, refresh_interval: SimDuration) -> Self {
        InformationIndex::start_with_faults(
            sim,
            sites,
            refresh_interval,
            Vec::new(),
            MembershipConfig::default(),
        )
    }

    /// Like [`InformationIndex::start`], but with per-site outage windows
    /// on the publication paths and explicit failure-detector thresholds.
    /// A site whose path is down when a refresh tick fires keeps its
    /// previous (stale) column, keeps its old per-site `published_at`,
    /// and accrues a missed refresh toward `Suspect`/`Dead`.
    pub fn start_with_faults(
        sim: &mut Sim,
        sites: Vec<Site>,
        refresh_interval: SimDuration,
        publish_faults: Vec<FaultSchedule>,
        membership: MembershipConfig,
    ) -> Self {
        let ads = sites.iter().map(Site::machine_ad_arc).collect();
        let n = sites.len();
        let index = InformationIndex {
            inner: Rc::new(RefCell::new(Inner {
                sites,
                snapshot: Arc::new(AdSnapshot::build_shared(ads)),
                refreshed_at: sim.now(),
                published_at: vec![sim.now(); n],
                refresh_interval,
                query_cpu_s: 0.42,
                refreshes: 0,
                publish_faults,
                membership: MembershipTable::new(n, membership),
                observer: None,
                window: None,
                sweep: None,
                next_sweep_gen: 0,
                late_merges: 0,
                amnestied: 0,
                sweep_observer: None,
            })),
        };
        index.schedule_refresh(sim);
        index
    }

    /// Like [`InformationIndex::start_with_faults`], but the refresh cycle
    /// runs as windowed sweeps (at most `window.fanout` concurrent site
    /// pulls, per-site publication latency) instead of the legacy
    /// instantaneous walk. Sites whose publish path is down *at boot* get
    /// a placeholder column (`FreeCpus = 0`, `AcceptsQueued = false`)
    /// until their first publication arrives — so a mass join surfaces as
    /// a genuine per-site delta, not a pre-populated row.
    pub fn start_windowed(
        sim: &mut Sim,
        sites: Vec<Site>,
        refresh_interval: SimDuration,
        window: RefreshWindow,
        publish_faults: Vec<FaultSchedule>,
        membership: MembershipConfig,
    ) -> Self {
        let now = sim.now();
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
        let n = sites.len();
        let index = InformationIndex {
            inner: Rc::new(RefCell::new(Inner {
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
                window: Some(window),
                sweep: None,
                next_sweep_gen: 0,
                late_merges: 0,
                amnestied: 0,
                sweep_observer: None,
            })),
        };
        index.schedule_windowed_tick(sim);
        index
    }

    fn schedule_refresh(&self, sim: &mut Sim) {
        let this = self.clone();
        let interval = self.inner.borrow().refresh_interval;
        sim.schedule_in(interval, move |sim| {
            let (transitions, report, snap) = {
                let mut guard = this.inner.borrow_mut();
                let inner = &mut *guard;
                let now = sim.now();
                let mut transitions = Vec::new();
                let mut missed = 0;
                // Each site publishes independently: a down path keeps the
                // stale column (same Arc, same epoch) and counts a miss. A
                // site whose shared ad is still the one in the snapshot has
                // nothing to publish, so the delta carries only the rest.
                let mut changes = Vec::new();
                for (i, site) in inner.sites.iter().enumerate() {
                    let down = inner.publish_faults.get(i).is_some_and(|f| f.is_down(now));
                    let tr = if down {
                        missed += 1;
                        inner.membership.note_refresh_missed(i, now)
                    } else {
                        let ad = site.machine_ad_arc();
                        if !Arc::ptr_eq(&ad, inner.snapshot.ad_arc(i)) {
                            changes.push((i, ad));
                        }
                        inner.published_at[i] = now;
                        inner.membership.note_refresh_ok(i, now)
                    };
                    if let Some(tr) = tr {
                        transitions.push((i, tr));
                    }
                }
                // Only sites whose ad changed get a new epoch; the rest
                // share the previous snapshot's allocations.
                inner.snapshot = Arc::new(inner.snapshot.apply_delta(&changes));
                inner.refreshed_at = now;
                inner.refreshes += 1;
                let report = SweepReport {
                    refreshed: inner.sites.len() - missed,
                    missed,
                    amnestied: 0,
                    late: false,
                };
                (transitions, report, Arc::clone(&inner.snapshot))
            };
            this.notify(sim, transitions);
            this.notify_sweep(sim, &report, &snap);
            this.schedule_refresh(sim);
        });
    }

    fn schedule_windowed_tick(&self, sim: &mut Sim) {
        let this = self.clone();
        let interval = self.inner.borrow().refresh_interval;
        sim.schedule_in(interval, move |sim| {
            // Force-close whatever the previous sweep left open (amnesty
            // for in-flight and unattempted sites), then open a new sweep.
            this.close_sweep(sim);
            this.begin_sweep(sim);
            this.schedule_windowed_tick(sim);
        });
    }

    fn begin_sweep(&self, sim: &mut Sim) {
        {
            let mut inner = self.inner.borrow_mut();
            let gen = inner.next_sweep_gen;
            inner.next_sweep_gen += 1;
            inner.sweep = Some(SweepState {
                gen,
                pending: (0..inner.sites.len()).collect(),
                in_flight: 0,
                arrived: Vec::new(),
                missed: 0,
            });
        }
        self.pump_sweep(sim);
    }

    /// Launches site pulls until the fanout window is full; closes the
    /// sweep early once every site has been attempted and settled.
    fn pump_sweep(&self, sim: &mut Sim) {
        enum Pump {
            Close,
            Wait,
            Missed(usize, Option<Transition>),
            Pull(usize, u64, SimDuration, Arc<Ad>),
        }
        loop {
            let step = {
                let mut inner = self.inner.borrow_mut();
                let now = sim.now();
                let fanout = inner
                    .window
                    .as_ref()
                    .map_or(usize::MAX, |w| w.fanout.max(1));
                let Some(sweep) = inner.sweep.as_mut() else {
                    return;
                };
                if sweep.in_flight >= fanout {
                    return;
                }
                let gen = sweep.gen;
                let popped = sweep.pending.pop_front();
                let settled = sweep.in_flight == 0;
                match popped {
                    // Pending drained: close once the last reply settles.
                    None if settled => Pump::Close,
                    None => Pump::Wait,
                    Some(i) => {
                        if inner.publish_faults.get(i).is_some_and(|f| f.is_down(now)) {
                            // Down at attempt time: a genuine miss, counted
                            // immediately — no reply will ever arrive.
                            inner.sweep.as_mut().expect("sweep open").missed += 1;
                            Pump::Missed(i, inner.membership.note_refresh_missed(i, now))
                        } else {
                            inner.sweep.as_mut().expect("sweep open").in_flight += 1;
                            let latency = inner
                                .window
                                .as_ref()
                                .and_then(|w| w.latency.get(i).copied())
                                .unwrap_or(SimDuration::ZERO);
                            Pump::Pull(i, gen, latency, inner.sites[i].machine_ad_arc())
                        }
                    }
                }
            };
            match step {
                Pump::Close => {
                    self.close_sweep(sim);
                    return;
                }
                Pump::Wait => return,
                Pump::Missed(i, tr) => {
                    if let Some(tr) = tr {
                        self.notify(sim, vec![(i, tr)]);
                    }
                }
                Pump::Pull(i, gen, latency, ad) => {
                    let this = self.clone();
                    sim.schedule_in(latency, move |sim| {
                        this.publish_arrived(sim, gen, i, ad);
                    });
                }
            }
        }
    }

    /// A site's publication reply lands. If its sweep is still open the
    /// ad is buffered for the sweep's single `apply_delta`; if the tick
    /// already force-closed that sweep the reply is *late* — merged
    /// immediately as its own one-site delta. Either way the reply proves
    /// the path is healthy, so the failure detector records a clean
    /// refresh (the late-reply amnesty satellite).
    fn publish_arrived(&self, sim: &mut Sim, gen: u64, i: usize, ad: Arc<Ad>) {
        let (transition, late) = {
            let mut inner = self.inner.borrow_mut();
            let now = sim.now();
            inner.published_at[i] = now;
            let tr = inner.membership.note_refresh_ok(i, now);
            let current = inner.sweep.as_mut().filter(|s| s.gen == gen);
            match current {
                Some(sweep) => {
                    sweep.arrived.push((i, ad));
                    sweep.in_flight -= 1;
                    (tr, None)
                }
                None => {
                    inner.snapshot = Arc::new(inner.snapshot.apply_delta(&[(i, ad)]));
                    inner.late_merges += 1;
                    let report = SweepReport {
                        refreshed: 1,
                        missed: 0,
                        amnestied: 0,
                        late: true,
                    };
                    (tr, Some((report, Arc::clone(&inner.snapshot))))
                }
            }
        };
        if let Some(tr) = transition {
            self.notify(sim, vec![(i, tr)]);
        }
        match late {
            Some((report, snap)) => self.notify_sweep(sim, &report, &snap),
            None => self.pump_sweep(sim),
        }
    }

    /// Closes the open sweep (if any): applies the buffered arrivals as
    /// one delta, stamps the refresh cycle, and amnesties whatever was
    /// still in flight or unattempted — those sites are neither refreshed
    /// nor missed this cycle.
    fn close_sweep(&self, sim: &mut Sim) {
        let closed = {
            let mut inner = self.inner.borrow_mut();
            let Some(sweep) = inner.sweep.take() else {
                return;
            };
            let amnestied = sweep.in_flight + sweep.pending.len();
            inner.amnestied += amnestied as u64;
            inner.snapshot = Arc::new(inner.snapshot.apply_delta(&sweep.arrived));
            inner.refreshed_at = sim.now();
            inner.refreshes += 1;
            let report = SweepReport {
                refreshed: sweep.arrived.len(),
                missed: sweep.missed,
                amnestied,
                late: false,
            };
            (report, Arc::clone(&inner.snapshot))
        };
        self.notify_sweep(sim, &closed.0, &closed.1);
    }

    /// Registers the single sweep observer, replacing any previous one.
    /// Fires after every snapshot advance — legacy refresh, windowed
    /// sweep close, or late-reply merge.
    pub fn set_sweep_observer(
        &self,
        observer: impl Fn(&mut Sim, &SweepReport, &Arc<AdSnapshot>) + 'static,
    ) {
        self.inner.borrow_mut().sweep_observer = Some(Rc::new(observer));
    }

    fn notify_sweep(&self, sim: &mut Sim, report: &SweepReport, snap: &Arc<AdSnapshot>) {
        let observer = self.inner.borrow().sweep_observer.clone();
        if let Some(observer) = observer {
            observer(sim, report, snap);
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

    fn notify(&self, sim: &mut Sim, transitions: Vec<(usize, Transition)>) {
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
    pub fn query(
        &self,
        sim: &mut Sim,
        link: &Link,
        on: impl FnOnce(&mut Sim, Result<Arc<AdSnapshot>, NetError>) + 'static,
    ) {
        let service = SimDuration::from_secs_f64(self.inner.borrow().query_cpu_s);
        let this = self.clone();
        let link2 = link.clone();
        link.send(sim, Dir::AToB, 250, move |sim, r| match r {
            Err(e) => on(sim, Err(e)),
            Ok(()) => {
                sim.schedule_in(service, move |sim| {
                    // Service completes here: snapshot what the MDS can
                    // actually serve, before the reply hits the wire.
                    let snap = Arc::clone(&this.inner.borrow().snapshot);
                    let resp_bytes = 300 + 900 * snap.len() as u64; // LDAP entries
                    link2.send(sim, Dir::BToA, resp_bytes, move |sim, r| match r {
                        Err(e) => on(sim, Err(e)),
                        Ok(()) => on(sim, Ok(snap)),
                    });
                });
            }
        });
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
    fn refresh_advances_epochs_only_for_changed_sites() {
        let mut sim = Sim::new(7);
        let busy = test_site(&mut sim, "busy", 2);
        let idle = test_site(&mut sim, "idle", 2);
        let index = InformationIndex::start(
            &mut sim,
            vec![busy.clone(), idle],
            SimDuration::from_secs(300),
        );
        let s0 = index.snapshot_arc();
        assert_eq!(s0.epoch(), 0);

        busy.lrms().submit(
            &mut sim,
            LocalJobSpec::simple(SimDuration::from_secs(10_000)),
            |_, _, _| {},
        );
        sim.run_until(SimTime::from_secs(301));
        let s1 = index.snapshot_arc();
        assert_eq!(s1.epoch(), 1);
        assert_eq!(
            s1.dirty_since(s0.epoch()).collect::<Vec<_>>(),
            vec![0],
            "only the site whose ad changed is dirty"
        );
        assert_eq!(s1.free_cpus(0), 1);
        assert_eq!(s1.site_epoch(1), 0, "idle site keeps epoch 0");
        assert!(
            std::sync::Arc::ptr_eq(s0.ad_arc(1), s1.ad_arc(1)),
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
        let index = InformationIndex::start_with_faults(
            &mut sim,
            vec![flaky.clone(), steady],
            SimDuration::from_secs(300),
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
        let index = InformationIndex::start_with_faults(
            &mut sim,
            vec![site],
            SimDuration::from_secs(300),
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
        index.query(&mut sim, &link, move |sim, r| {
            assert_eq!(r.unwrap().len(), 20);
            *d.borrow_mut() = Some(sim.now().as_secs_f64());
        });
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
        index.query(&mut sim, &link, move |_, r| {
            *g.borrow_mut() = Some(r.is_err());
        });
        sim.run_until(SimTime::from_secs(50));
        assert_eq!(*got.borrow(), Some(true));
    }

    #[test]
    fn windowed_refresh_converges_with_bounded_fanout() {
        let mut sim = Sim::new(11);
        let sites: Vec<Site> = (0..6)
            .map(|i| test_site(&mut sim, &format!("s{i}"), 2))
            .collect();
        let busy = sites[0].clone();
        let index = InformationIndex::start_windowed(
            &mut sim,
            sites,
            SimDuration::from_secs(60),
            RefreshWindow {
                fanout: 2,
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
        // Sweep opens at t=60 and pulls two sites per 1 s wave: waves at
        // 60, 61, 62, last replies land at 63 — not 6 × RTT serial.
        sim.run_until(SimTime::from_secs(64));
        assert_eq!(index.refreshes(), 1);
        assert_eq!(index.refreshed_at(), SimTime::from_secs(63));
        let snap = index.snapshot_arc();
        assert_eq!(snap.free_cpus(0), 1, "sweep captured the occupied node");
        for i in 0..6 {
            assert_eq!(index.membership_state(i), MembershipState::Alive);
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
        let index = InformationIndex::start_windowed(
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
    fn windowed_mode_still_suspects_a_down_publish_path() {
        // Amnesty is only for in-flight replies; a path that is down at
        // attempt time counts a miss immediately, exactly like the legacy
        // walk.
        let mut sim = Sim::new(13);
        let dark = test_site(&mut sim, "dark", 2);
        let lit = test_site(&mut sim, "lit", 2);
        let faults =
            FaultSchedule::from_windows(vec![(SimTime::from_secs(30), SimTime::from_secs(10_000))]);
        let index = InformationIndex::start_windowed(
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
        // publication surfaces as a genuine one-site delta.
        let mut sim = Sim::new(14);
        let joiner = test_site(&mut sim, "joiner", 4);
        let steady = test_site(&mut sim, "steady", 2);
        let faults = FaultSchedule::from_windows(vec![(SimTime::ZERO, SimTime::from_secs(100))]);
        let index = InformationIndex::start_windowed(
            &mut sim,
            vec![joiner, steady],
            SimDuration::from_secs(60),
            RefreshWindow {
                fanout: 4,
                latency: vec![SimDuration::from_secs(1); 2],
            },
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
        assert_eq!(
            joined.dirty_since(held.epoch()).collect::<Vec<_>>(),
            vec![0],
            "the join is a one-site delta, not a full-snapshot invalidation"
        );
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
        index.query(&mut sim, &link, move |sim, r| {
            let snap = r.unwrap();
            *g.borrow_mut() = Some((sim.now().as_secs_f64(), snap.free_cpus(0), idx.refreshes()));
        });
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
