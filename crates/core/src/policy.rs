//! Pluggable site-selection policies.
//!
//! The paper's CrossBroker ranks candidates with a single fixed heuristic
//! (free CPUs, §3 Table I). This module generalizes the selection step into
//! a [`SelectionPolicy`] trait so alternative strategies — queue-length
//! forecasting, network proximity, lease-failure backoff — plug into the
//! same two dispatch points ([`select_detailed_with`], [`coallocate_with`])
//! without touching them.
//!
//! # Determinism contract
//!
//! Every policy must be a *pure function* of its inputs: the filtered
//! [`Candidate`] and the per-site [`SiteSignals`] snapshot. No clocks, no
//! RNG, no interior mutability. Randomness belongs exclusively to the
//! selection machinery (tie-breaking among exactly equal scores), which
//! draws from the caller's deterministic stream. This is what keeps a
//! replay bit-identical under any policy, and what the conformance suite
//! (`tests/policy_conformance.rs`) enforces for each registered policy.
//!
//! # NaN contract
//!
//! A candidate whose score is NaN is *not comparable* and is discarded
//! (and reported) exactly like a NaN `Rank` under the default policy.
//! Shipped policies derive their score from `Candidate::rank` with finite
//! adjustments, so a NaN rank propagates to a NaN score and the PR-4
//! discard/trace semantics hold under every policy. Ties are exact
//! [`f64::total_cmp`] equality on the *score* — never "close enough".

use cg_sim::{SimDuration, SimRng, SimTime};

use crate::matchmaking::{Candidate, Selection};

/// Per-site observations a policy may consult, snapshotted at selection
/// time. Everything defaults to zero: a site nobody has signals for scores
/// exactly as the plain rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSignals {
    /// Jobs currently waiting in the site's LRMS queue.
    pub queue_depth: i64,
    /// Forecast queue depth (EWMA over fair-share ticks, see
    /// [`QueueForecaster`]).
    pub queue_forecast: f64,
    /// Nominal round-trip time to the site's gatekeeper, seconds.
    pub rtt_s: f64,
    /// Consecutive lease failures (dispatches that queued or failed at the
    /// site) since the last successful start there.
    pub lease_failures: u32,
    /// Age of the site's information-index column at selection time,
    /// seconds. Zero right after a clean MDS publication; grows while the
    /// site's publish path is down and during degraded (stale-snapshot)
    /// matchmaking. Signal-aware policies subtract
    /// [`STALE_WEIGHT_PER_S`] rank units per second of it.
    pub staleness_s: f64,
}

impl Default for SiteSignals {
    fn default() -> Self {
        SiteSignals {
            queue_depth: 0,
            queue_forecast: 0.0,
            rtt_s: 0.0,
            lease_failures: 0,
            staleness_s: 0.0,
        }
    }
}

/// Rank units subtracted per second of information staleness by every
/// signal-aware policy (`queue-forecast`, `network-proximity`,
/// `lease-backoff`): a site whose publications stopped five minutes ago
/// loses 3 rank units — decisive between near-equal pools, negligible
/// against a fresh column. `free-cpus-rank` is exempt by contract (its
/// score is the rank bit-for-bit).
pub const STALE_WEIGHT_PER_S: f64 = 0.01;

/// Signals for every site in a discovery snapshot, keyed by site index.
/// Missing entries read as [`SiteSignals::default`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicySignals {
    /// Sorted by site index, one entry per index. Selection fills it in
    /// candidate (= index) order, so a `set` is an append.
    sites: Vec<(usize, SiteSignals)>,
}

impl PolicySignals {
    /// Empty signal set: every policy degenerates to scoring the plain
    /// rank (plus a constant), so selection matches the default policy's
    /// candidate ordering inputs.
    #[must_use]
    pub fn new() -> Self {
        PolicySignals::default()
    }

    /// An empty signal set with room for `sites` sites.
    pub(crate) fn with_capacity(sites: usize) -> Self {
        PolicySignals {
            sites: Vec::with_capacity(sites),
        }
    }

    /// Records the signals for `site_index`.
    pub fn set(&mut self, site_index: usize, signals: SiteSignals) {
        if self.sites.last().is_none_or(|(last, _)| *last < site_index) {
            self.sites.push((site_index, signals));
            return;
        }
        match self.position(site_index) {
            Ok(at) => self.sites[at].1 = signals,
            Err(at) => self.sites.insert(at, (site_index, signals)),
        }
    }

    /// Signals for `site_index`, defaulting when never recorded.
    #[must_use]
    pub fn get(&self, site_index: usize) -> SiteSignals {
        self.position(site_index)
            .map(|at| self.sites[at].1)
            .unwrap_or_default()
    }

    fn position(&self, site_index: usize) -> Result<usize, usize> {
        self.sites.binary_search_by_key(&site_index, |(i, _)| *i)
    }

    /// [`PolicySignals::get`] for a sequence of reads: a read of the site
    /// after the last one read is one comparison, so walking candidates in
    /// site-index order over the signals recorded for them searches nothing.
    fn reader(&self) -> impl FnMut(usize) -> SiteSignals + '_ {
        let mut next = 0;
        move |site_index| match self.sites.get(next) {
            Some((i, signals)) if *i == site_index => {
                next += 1;
                *signals
            }
            _ => match self.position(site_index) {
                Ok(at) => {
                    next = at + 1;
                    self.sites[at].1
                }
                Err(at) => {
                    next = at;
                    SiteSignals::default()
                }
            },
        }
    }
}

/// A site-selection scoring strategy. See the module docs for the
/// determinism and NaN contracts implementations must satisfy.
pub trait SelectionPolicy: std::fmt::Debug + Send + Sync {
    /// Stable registry name (also the JDL `SelectionPolicy` spelling).
    fn name(&self) -> &'static str;

    /// Scores a filtered candidate; higher is better. Returning NaN marks
    /// the candidate non-comparable: it is discarded and traced, never
    /// preferred.
    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64;
}

/// The paper's default: the candidate's evaluated `Rank` (which itself
/// defaults to free CPUs). Scores are the ranks unchanged, so selection
/// through this policy is bit-identical to the pre-policy broker.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreeCpusRank;

impl SelectionPolicy for FreeCpusRank {
    fn name(&self) -> &'static str {
        "free-cpus-rank"
    }

    fn score(&self, c: &Candidate, _signals: &SiteSignals) -> f64 {
        c.rank
    }
}

/// Rank units [`QueueForecast`] subtracts per forecast queued job.
const QUEUE_FORECAST_WEIGHT: f64 = 1.0;

/// Rank units [`NetworkProximity`] subtracts per second of RTT: a typical
/// 30 ms WAN hop costs 3 rank units — decisive between sites a few free
/// CPUs apart, negligible within a campus.
const RTT_WEIGHT_PER_S: f64 = 100.0;

/// Rank units [`LeaseBackoff`] subtracts per consecutive lease failure.
const LEASE_FAILURE_PENALTY: f64 = 4.0;

/// Penalizes sites by their forecast LRMS queue depth: a site that has
/// been accumulating queued work recently is likely to queue the next
/// dispatch too, even if a free slot just opened.
#[derive(Debug, Clone, Copy)]
pub struct QueueForecast;

impl SelectionPolicy for QueueForecast {
    fn name(&self) -> &'static str {
        "queue-forecast"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank
            - QUEUE_FORECAST_WEIGHT * signals.queue_forecast
            - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

/// Penalizes distant sites by the nominal round-trip time of their broker
/// link — interactive sessions pay that RTT on every keystroke, so a
/// slightly smaller pool nearby beats a big pool across a WAN.
#[derive(Debug, Clone, Copy)]
pub struct NetworkProximity;

impl SelectionPolicy for NetworkProximity {
    fn name(&self) -> &'static str {
        "network-proximity"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank - RTT_WEIGHT_PER_S * signals.rtt_s - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

/// Penalizes sites with consecutive recent lease failures (dispatches that
/// queued or failed there since the last successful start) — the
/// selection-side complement of the resubmission backoff from PR 3:
/// instead of only waiting longer, also steer the next attempt elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct LeaseBackoff;

impl SelectionPolicy for LeaseBackoff {
    fn name(&self) -> &'static str {
        "lease-backoff"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank
            - LEASE_FAILURE_PENALTY * f64::from(signals.lease_failures)
            - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

/// The registered policies, as a copyable configuration token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// [`FreeCpusRank`] — the paper's behaviour, and the default.
    #[default]
    FreeCpusRank,
    /// [`QueueForecast`].
    QueueForecast,
    /// [`NetworkProximity`].
    NetworkProximity,
    /// [`LeaseBackoff`].
    LeaseBackoff,
}

impl PolicyKind {
    /// Every registered policy, in registry order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::FreeCpusRank,
        PolicyKind::QueueForecast,
        PolicyKind::NetworkProximity,
        PolicyKind::LeaseBackoff,
    ];

    /// The registry name (also the JDL `SelectionPolicy` spelling).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.policy().name()
    }

    /// Parses a registry name; `None` for unknown spellings (the analyzer
    /// warns, the broker falls back to its configured default).
    #[must_use]
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The policy instance with its default parameters.
    #[must_use]
    pub fn policy(self) -> &'static dyn SelectionPolicy {
        match self {
            PolicyKind::FreeCpusRank => &FreeCpusRank,
            PolicyKind::QueueForecast => &QueueForecast,
            PolicyKind::NetworkProximity => &NetworkProximity,
            PolicyKind::LeaseBackoff => &LeaseBackoff,
        }
    }
}

/// Picks the winner: best score, with **randomized selection** among
/// score-ties — "used to generate different answers when there are
/// multiple resource choices" (§3), which also prevents broker herds.
/// Under [`FreeCpusRank`] the score *is* the rank, so this is
/// bit-identical — same comparisons, same single RNG draw — to the
/// pre-policy implementation.
///
/// Ties are detected with exact [`f64::total_cmp`] equality: two sites tie
/// only when their scores are the same float, never "close enough" under
/// an absolute epsilon (which tied 1e9 with 1e9+1e-13 but not 1e-13 with
/// 0). NaN scores are excluded up front and reported in
/// [`Selection::nan_discarded`]; an all-NaN candidate set selects nothing.
///
/// Allocates only for a NaN report: policies are pure, so instead of
/// keeping the scores the passes score again — one to find the best score
/// (`f64::max` folded in candidate order), one to count the ties, one to
/// walk to the tie the draw picked.
pub fn select_detailed_with(
    policy: &dyn SelectionPolicy,
    signals: &PolicySignals,
    candidates: &[Candidate],
    rng: &mut SimRng,
) -> Selection {
    let scored = || {
        let mut signals = signals.reader();
        candidates
            .iter()
            .map(move |c| (policy.score(c, &signals(c.site_index)), c))
    };
    let mut nan_discarded = Vec::new();
    let mut best: Option<f64> = None;
    for (score, c) in scored() {
        if score.is_nan() {
            nan_discarded.push(*c);
        } else {
            best = Some(best.map_or(score, |b| b.max(score)));
        }
    }
    let Some(best) = best else {
        return Selection {
            winner: None,
            nan_discarded,
        };
    };
    let ties = || scored().filter(|(s, _)| s.total_cmp(&best) == std::cmp::Ordering::Equal);
    let chosen = rng.index(ties().count());
    Selection {
        winner: ties().nth(chosen).map(|(_, c)| *c),
        nan_discarded,
    }
}

/// Greedy MPICH-G2 co-allocation: spread `nodes` across candidate sites,
/// biggest free pool first. Returns `(site_index, nodes_there)` or `None`
/// when the grid cannot host the job.
///
/// The planner's contract with dispatch: a plan claims **immediately
/// leasable** capacity only. Candidates at zero free CPUs (admitted into
/// the candidate list by the batch filter when the site `AcceptsQueued`)
/// are excluded here — queued capacity cannot host a co-allocated subjob
/// now, and a plan built on it would "succeed" only to stall at the
/// gatekeeper. The dispatch side enforces the same contract by failing the
/// job if a planned subjob queues anyway (a plan/dispatch race).
///
/// The plan is deterministic under ties: sites are ordered by free pool
/// (descending), then score (descending, NaN demoted below every real
/// score instead of poisoning the sort), then site index (ascending).
/// Under [`FreeCpusRank`] this is the pre-policy plan exactly.
pub fn coallocate_with(
    policy: &dyn SelectionPolicy,
    signals: &PolicySignals,
    candidates: &[Candidate],
    nodes: u32,
) -> Option<Vec<(usize, u32)>> {
    // Descending by score with NaN demoted below every real score (raw
    // `total_cmp` would put NaN above +inf and hand it the best spot).
    let score_desc = |a: f64, b: f64| match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    };
    let mut sorted: Vec<(f64, &Candidate)> = candidates
        .iter()
        .filter(|c| c.free_cpus > 0)
        .map(|c| (policy.score(c, &signals.get(c.site_index)), c))
        .collect();
    sorted.sort_by(|(sa, a), (sb, b)| {
        b.free_cpus
            .cmp(&a.free_cpus)
            .then(score_desc(*sa, *sb))
            .then(a.site_index.cmp(&b.site_index))
    });
    let mut left = nodes;
    let mut plan = Vec::new();
    for (_, c) in sorted {
        if left == 0 {
            break;
        }
        let take = (c.free_cpus as u32).min(left);
        plan.push((c.site_index, take));
        left -= take;
    }
    (left == 0).then_some(plan)
}

/// Per-site EWMA queue-depth forecaster feeding [`QueueForecast`].
///
/// Mirrors the fair-share engine's decay (Eq. 1): at each tick the
/// forecast moves toward the latest observed depth by `1 − β` with
/// `β = 0.5^(δt/h)`. Observations land between ticks and the *last* one
/// within a δt window wins — repeated ticks at the same timestamp are
/// no-ops, the same same-δt contract the fair-share engine pins with its
/// "register and release within one δt charges nothing" test.
#[derive(Debug, Clone)]
pub struct QueueForecaster {
    beta: f64,
    /// Indexed by site, like `latest`; both reach as far as the highest
    /// site observed so far.
    forecasts: Vec<f64>,
    /// The observation the next tick will fold, if one came in.
    latest: Vec<Option<i64>>,
    last_tick: Option<SimTime>,
}

impl QueueForecaster {
    /// Creates a forecaster decaying with half-life `half_life` sampled
    /// every `delta_t` (the fair-share tick period).
    #[must_use]
    pub fn new(half_life: SimDuration, delta_t: SimDuration) -> Self {
        let h = half_life.as_secs_f64().max(f64::MIN_POSITIVE);
        let beta = 0.5f64.powf(delta_t.as_secs_f64() / h);
        QueueForecaster {
            beta,
            forecasts: Vec::new(),
            latest: Vec::new(),
            last_tick: None,
        }
    }

    /// Records the observed LRMS queue depth at `site_index`. Within one
    /// δt window the last observation wins.
    pub fn observe(&mut self, site_index: usize, queue_depth: i64) {
        if site_index >= self.latest.len() {
            self.latest.resize(site_index + 1, None);
            self.forecasts.resize(site_index + 1, 0.0);
        }
        self.latest[site_index] = Some(queue_depth);
    }

    /// Folds the latest observations into the forecasts, *draining* them: an
    /// observation influences exactly the tick that consumes it. A site that
    /// stops reporting holds its forecast — decaying toward 0 without data
    /// would fabricate a queue-emptying signal, and re-folding the stale
    /// value forever (the pre-fix behaviour) kept pulling the forecast
    /// toward a depth nobody had reported since. A second tick at the same
    /// timestamp is a no-op (same-δt contract).
    pub fn tick(&mut self, now: SimTime) {
        if self.last_tick == Some(now) {
            return;
        }
        self.last_tick = Some(now);
        for (f, latest) in self.forecasts.iter_mut().zip(&mut self.latest) {
            if let Some(depth) = latest.take() {
                *f = self.beta * *f + (1.0 - self.beta) * depth as f64;
            }
        }
    }

    /// The current forecast depth for `site_index` (0.0 when never
    /// observed).
    #[must_use]
    pub fn forecast(&self, site_index: usize) -> f64 {
        self.forecasts.get(site_index).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(site_index: usize, rank: f64, free: i64) -> Candidate {
        Candidate {
            site_index,
            rank,
            free_cpus: free,
        }
    }

    #[test]
    fn registry_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("best-effort"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::FreeCpusRank);
    }

    #[test]
    fn registry_matches_the_jdl_analyzer_vocabulary() {
        // The analyzer warns (W207) for any name outside its list; if the
        // two registries drift, either valid names get spurious warnings
        // or unknown names lint clean while the broker silently falls
        // back. Pin them together.
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, cg_jdl::SELECTION_POLICIES);
    }

    #[test]
    fn signals_read_back_in_whatever_order_they_were_set() {
        let with_rtt = |rtt_s| SiteSignals {
            rtt_s,
            ..SiteSignals::default()
        };
        let mut ascending = PolicySignals::new();
        let mut shuffled = PolicySignals::new();
        for i in [1, 4, 9, 200] {
            ascending.set(i, with_rtt(i as f64));
        }
        for i in [9, 200, 1, 4, 9] {
            shuffled.set(i, with_rtt(-1.0));
            shuffled.set(i, with_rtt(i as f64)); // the last write wins
        }
        assert_eq!(ascending, shuffled);
        for i in 0..=201 {
            let expected = if [1, 4, 9, 200].contains(&i) {
                with_rtt(i as f64)
            } else {
                SiteSignals::default()
            };
            assert_eq!(ascending.get(i), expected, "site {i}");
        }
        // A reader agrees with `get` whatever order it is read in.
        let mut order: Vec<usize> = (0..=201).chain((0..=201).rev()).collect();
        order.extend([9, 4, 9, 9, 200, 1, 1, 5]);
        let mut read = ascending.reader();
        for i in order {
            assert_eq!(read(i), ascending.get(i), "site {i}");
        }
    }

    #[test]
    fn every_policy_propagates_nan_rank_to_nan_score() {
        let c = cand(0, f64::NAN, 4);
        let signals = SiteSignals {
            queue_depth: 3,
            queue_forecast: 2.5,
            rtt_s: 0.030,
            lease_failures: 2,
            staleness_s: 120.0,
        };
        for kind in PolicyKind::ALL {
            assert!(
                kind.policy().score(&c, &signals).is_nan(),
                "{} must not launder a NaN rank into a comparable score",
                kind.name()
            );
        }
    }

    #[test]
    fn free_cpus_rank_score_is_the_rank_bit_for_bit() {
        let signals = SiteSignals {
            queue_depth: 9,
            queue_forecast: 9.0,
            rtt_s: 9.0,
            lease_failures: 9,
            staleness_s: 9_000.0,
        };
        for rank in [0.0, -1.5, 1e300, f64::NEG_INFINITY, 5e-324] {
            let c = cand(1, rank, 2);
            let score = FreeCpusRank.score(&c, &signals);
            assert_eq!(score.to_bits(), rank.to_bits());
        }
    }

    #[test]
    fn queue_forecast_prefers_the_emptier_queue() {
        let p = QueueForecast;
        let busy = SiteSignals {
            queue_forecast: 4.0,
            ..SiteSignals::default()
        };
        let idle = SiteSignals::default();
        let c = cand(0, 6.0, 6);
        assert!(p.score(&c, &idle) > p.score(&c, &busy));
    }

    #[test]
    fn staleness_penalizes_every_signal_aware_policy_but_not_the_rank() {
        let c = cand(0, 10.0, 4);
        let fresh = SiteSignals::default();
        let stale = SiteSignals {
            staleness_s: 600.0,
            ..SiteSignals::default()
        };
        for kind in [
            PolicyKind::QueueForecast,
            PolicyKind::NetworkProximity,
            PolicyKind::LeaseBackoff,
        ] {
            let p = kind.policy();
            let drop = p.score(&c, &fresh) - p.score(&c, &stale);
            assert!(
                (drop - STALE_WEIGHT_PER_S * 600.0).abs() < 1e-12,
                "{}: ten stale minutes must cost {} rank units, got {drop}",
                kind.name(),
                STALE_WEIGHT_PER_S * 600.0
            );
        }
        assert_eq!(
            FreeCpusRank.score(&c, &stale).to_bits(),
            10.0f64.to_bits(),
            "free-cpus-rank stays bit-identical to the rank"
        );
    }

    #[test]
    fn lease_backoff_penalizes_per_failure() {
        let p = LeaseBackoff;
        let c = cand(0, 10.0, 4);
        let fail = |n| SiteSignals {
            lease_failures: n,
            ..SiteSignals::default()
        };
        assert_eq!(p.score(&c, &fail(0)), 10.0);
        assert_eq!(p.score(&c, &fail(1)), 6.0);
        assert_eq!(p.score(&c, &fail(3)), -2.0);
    }

    // --- NetworkProximity over a 3-site triangle with known profiles ---
    //
    //           ui ── 0.3 ms ── near   (4 free)
    //           │
    //           ├─── 15 ms ──── mid    (6 free)
    //           └─── 40 ms ──── far    (8 free)
    //
    // Under the default rank (free CPUs) `far` wins; proximity at
    // `RTT_WEIGHT_PER_S` (100 rank units/s) reorders them to
    // mid > far > near, because 6 − 1.5 > 8 − 4.0 > 4 − 0.03.
    #[test]
    fn network_proximity_triangle_flips_the_free_cpu_order() {
        let p = NetworkProximity;
        let triangle = [
            (cand(0, 4.0, 4), 0.000_3),
            (cand(1, 6.0, 6), 0.015),
            (cand(2, 8.0, 8), 0.040),
        ];
        let scores: Vec<f64> = triangle
            .iter()
            .map(|(c, rtt)| {
                p.score(
                    c,
                    &SiteSignals {
                        rtt_s: *rtt,
                        ..SiteSignals::default()
                    },
                )
            })
            .collect();
        assert!((scores[0] - 3.97).abs() < 1e-12);
        assert!((scores[1] - 4.5).abs() < 1e-12);
        assert!((scores[2] - 4.0).abs() < 1e-12);
        // Ranks alone prefer `far`; the triangle's RTTs prefer `mid`.
        let mut rng = SimRng::new(11);
        let cands: Vec<Candidate> = triangle.iter().map(|(c, _)| *c).collect();
        let mut signals = PolicySignals::new();
        for ((c, rtt), _) in triangle.iter().zip(0..) {
            signals.set(
                c.site_index,
                SiteSignals {
                    rtt_s: *rtt,
                    ..SiteSignals::default()
                },
            );
        }
        let by_rank = select_detailed_with(&FreeCpusRank, &signals, &cands, &mut rng);
        assert_eq!(by_rank.winner.unwrap().site_index, 2);
        let by_proximity = select_detailed_with(&p, &signals, &cands, &mut rng);
        assert_eq!(by_proximity.winner.unwrap().site_index, 1);
    }

    #[test]
    fn selection_with_policy_discards_nan_scores() {
        let mut rng = SimRng::new(7);
        let c = vec![cand(0, f64::NAN, 4), cand(1, 2.0, 4), cand(2, f64::NAN, 4)];
        let sel = select_detailed_with(
            PolicyKind::QueueForecast.policy(),
            &PolicySignals::new(),
            &c,
            &mut rng,
        );
        assert_eq!(sel.winner.as_ref().unwrap().site_index, 1);
        let discarded: Vec<usize> = sel.nan_discarded.iter().map(|c| c.site_index).collect();
        assert_eq!(discarded, vec![0, 2], "NaN report preserves input order");
    }

    // --- QueueForecaster against hand-computed histories ---

    fn forecaster() -> QueueForecaster {
        // δt = h ⇒ β = 0.5 exactly, like the fair-share paper-pin test.
        QueueForecaster::new(SimDuration::from_secs(60), SimDuration::from_secs(60))
    }

    #[test]
    fn forecast_converges_on_a_steady_queue() {
        let mut f = forecaster();
        for t in 1..=10 {
            f.observe(0, 8);
            f.tick(SimTime::from_secs(60 * t));
        }
        // f_n = 8·(1 − 0.5^n); after 10 ticks that is 8 − 8/1024.
        assert!((f.forecast(0) - (8.0 - 8.0 / 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn forecast_tracks_hand_computed_history() {
        let mut f = forecaster();
        f.observe(3, 4);
        f.tick(SimTime::from_secs(60)); // 0.5·0 + 0.5·4 = 2
        assert!((f.forecast(3) - 2.0).abs() < 1e-12);
        f.observe(3, 0);
        f.tick(SimTime::from_secs(120)); // 0.5·2 + 0.5·0 = 1
        assert!((f.forecast(3) - 1.0).abs() < 1e-12);
        f.tick(SimTime::from_secs(180)); // no fresh observation ⇒ hold at 1
        assert!((f.forecast(3) - 1.0).abs() < 1e-12);
        assert_eq!(f.forecast(99), 0.0, "never-observed sites read as empty");
    }

    #[test]
    fn silent_sites_hold_their_forecast_instead_of_refolding() {
        // Regression for the stale-refold bug: `latest` was never drained,
        // so a site that stopped reporting kept being pulled toward its
        // last observed depth on every subsequent tick.
        let mut f = forecaster();
        f.observe(0, 8);
        f.tick(SimTime::from_secs(60)); // 0.5·0 + 0.5·8 = 4
        assert!((f.forecast(0) - 4.0).abs() < 1e-12);
        for t in 2..=6 {
            f.tick(SimTime::from_secs(60 * t)); // silence: no decay, no pull
        }
        assert!(
            (f.forecast(0) - 4.0).abs() < 1e-12,
            "a silent site's forecast holds; pre-fix it crept toward 8"
        );
        f.observe(0, 8);
        f.tick(SimTime::from_secs(60 * 7)); // 0.5·4 + 0.5·8 = 6
        assert!((f.forecast(0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn same_delta_t_observations_do_not_double_decay() {
        // The PR-4 fair-share edge case, restated for the forecaster: any
        // number of observations and repeated ticks within one δt window
        // must apply exactly one decay step, with the last observation
        // winning.
        let mut f = forecaster();
        f.observe(0, 10);
        f.observe(0, 2);
        f.observe(0, 6); // last write wins
        let now = SimTime::from_secs(60);
        f.tick(now);
        assert!((f.forecast(0) - 3.0).abs() < 1e-12, "0.5·0 + 0.5·6");
        f.tick(now); // same timestamp: must be a no-op
        f.tick(now);
        assert!((f.forecast(0) - 3.0).abs() < 1e-12, "no double decay");
    }
}
