//! Pluggable site-selection policies.
//!
//! The paper's CrossBroker ranks candidates with a single fixed heuristic
//! (free CPUs, §3 Table I). This module generalizes the selection step into
//! a [`SelectionPolicy`] trait so alternative strategies — queue-length
//! forecasting, network proximity, lease-failure backoff — plug into the
//! same two dispatch points (`select`, `coallocate`) without touching
//! them.
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

/// Penalizes sites by their forecast LRMS queue depth: a site that has
/// been accumulating queued work recently is likely to queue the next
/// dispatch too, even if a free slot just opened.
#[derive(Debug, Clone, Copy)]
pub struct QueueForecast {
    /// Rank units subtracted per forecast queued job.
    pub weight: f64,
}

impl Default for QueueForecast {
    fn default() -> Self {
        QueueForecast { weight: 1.0 }
    }
}

impl SelectionPolicy for QueueForecast {
    fn name(&self) -> &'static str {
        "queue-forecast"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank - self.weight * signals.queue_forecast - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

/// Penalizes distant sites by the nominal round-trip time of their broker
/// link — interactive sessions pay that RTT on every keystroke, so a
/// slightly smaller pool nearby beats a big pool across a WAN.
#[derive(Debug, Clone, Copy)]
pub struct NetworkProximity {
    /// Rank units subtracted per second of RTT. The default (100) makes a
    /// typical 30 ms WAN hop cost 3 rank units — decisive between sites a
    /// few free CPUs apart, negligible within a campus.
    pub rtt_weight: f64,
}

impl Default for NetworkProximity {
    fn default() -> Self {
        NetworkProximity { rtt_weight: 100.0 }
    }
}

impl SelectionPolicy for NetworkProximity {
    fn name(&self) -> &'static str {
        "network-proximity"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank - self.rtt_weight * signals.rtt_s - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

/// Penalizes sites with consecutive recent lease failures (dispatches that
/// queued or failed there since the last successful start) — the
/// selection-side complement of the resubmission backoff from PR 3:
/// instead of only waiting longer, also steer the next attempt elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct LeaseBackoff {
    /// Rank units subtracted per consecutive failure.
    pub penalty: f64,
}

impl Default for LeaseBackoff {
    fn default() -> Self {
        LeaseBackoff { penalty: 4.0 }
    }
}

impl SelectionPolicy for LeaseBackoff {
    fn name(&self) -> &'static str {
        "lease-backoff"
    }

    fn score(&self, c: &Candidate, signals: &SiteSignals) -> f64 {
        c.rank
            - self.penalty * f64::from(signals.lease_failures)
            - STALE_WEIGHT_PER_S * signals.staleness_s
    }
}

static FREE_CPUS_RANK: FreeCpusRank = FreeCpusRank;
static QUEUE_FORECAST: QueueForecast = QueueForecast { weight: 1.0 };
static NETWORK_PROXIMITY: NetworkProximity = NetworkProximity { rtt_weight: 100.0 };
static LEASE_BACKOFF: LeaseBackoff = LeaseBackoff { penalty: 4.0 };

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
            PolicyKind::FreeCpusRank => &FREE_CPUS_RANK,
            PolicyKind::QueueForecast => &QUEUE_FORECAST,
            PolicyKind::NetworkProximity => &NETWORK_PROXIMITY,
            PolicyKind::LeaseBackoff => &LEASE_BACKOFF,
        }
    }
}

/// A candidate paired with the score the active policy gave it, borrowed
/// while partitioning a scored slice.
type ScoredRef<'a> = (f64, &'a Candidate);

/// [`crate::matchmaking::select_detailed`] generalized over a policy:
/// scores every candidate, discards NaN scores into
/// [`Selection::nan_discarded`], finds the best score and picks uniformly
/// among the exactly-tied ([`f64::total_cmp`]) candidates with the
/// caller's RNG. Under [`FreeCpusRank`] the score *is* the rank, so this
/// is bit-identical — same partition, same comparisons, same single RNG
/// draw — to the pre-policy implementation.
pub fn select_detailed_with(
    policy: &dyn SelectionPolicy,
    signals: &PolicySignals,
    candidates: &[Candidate],
    rng: &mut SimRng,
) -> Selection {
    let scored: Vec<ScoredRef<'_>> = candidates
        .iter()
        .map(|c| (policy.score(c, &signals.get(c.site_index)), c))
        .collect();
    let (valid, nan): (Vec<&ScoredRef<'_>>, Vec<&ScoredRef<'_>>) =
        scored.iter().partition(|(s, _)| !s.is_nan());
    let nan_discarded: Vec<Candidate> = nan.into_iter().map(|(_, c)| **c).collect();
    let Some(best) = valid.iter().map(|(s, _)| *s).reduce(f64::max) else {
        return Selection {
            winner: None,
            nan_discarded,
        };
    };
    let ties: Vec<&Candidate> = valid
        .iter()
        .filter(|(s, _)| s.total_cmp(&best) == std::cmp::Ordering::Equal)
        .map(|(_, c)| *c)
        .collect();
    Selection {
        winner: Some(**rng.choose(&ties)),
        nan_discarded,
    }
}

/// [`crate::matchmaking::coallocate`] generalized over a policy: candidates
/// with free capacity are ordered free-pool-descending, then
/// score-descending with NaN demoted below every real score, then
/// site-index-ascending, and the plan greedily takes from the front. Under
/// [`FreeCpusRank`] this is the pre-policy plan exactly.
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
        let p = QueueForecast::default();
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
        let p = LeaseBackoff { penalty: 4.0 };
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
    // Under the default rank (free CPUs) `far` wins; proximity at the
    // default 100 rank-units/s flips the order to near > mid > far
    // because 4 − 0.03 > 6 − 1.5 > 8 − 4.0.
    #[test]
    fn network_proximity_triangle_flips_the_free_cpu_order() {
        let p = NetworkProximity::default();
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

    #[test]
    fn coallocate_with_default_policy_matches_plain_coallocate() {
        let c = vec![
            cand(2, 1.0, 4),
            cand(0, 1.0, 4),
            cand(1, f64::NAN, 6),
            cand(3, 7.0, 0),
        ];
        for nodes in [1, 4, 8, 14, 15] {
            assert_eq!(
                coallocate_with(&FreeCpusRank, &PolicySignals::new(), &c, nodes),
                crate::matchmaking::coallocate(&c, nodes),
            );
        }
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
