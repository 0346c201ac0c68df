//! Property tests on the fair-share engine and matchmaking.

use cg_jdl::{Ad, JobDescription};
use cg_sim::{SimDuration, SimRng, SimTime};
use crossbroker::{
    coallocate_with, filter_candidates, select_detailed_with, Candidate, FairShare,
    FairShareConfig, FreeCpusRank, PolicyKind, PolicySignals, Selection, SelectionPolicy,
    SiteSignals, UsageKind,
};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = UsageKind> {
    prop_oneof![
        Just(UsageKind::Batch),
        (0u8..=20).prop_map(|i| UsageKind::Interactive {
            performance_loss: i * 5
        }),
        (0u8..=20).prop_map(|i| UsageKind::YieldedBatch {
            performance_loss: i * 5
        }),
    ]
}

proptest! {
    /// Priorities are always within [0, max a_f]: non-negative, and bounded
    /// by the worst possible instantaneous charge (a_f ≤ 2, r ≤ 1).
    #[test]
    fn priority_is_bounded(
        usages in prop::collection::vec((kind_strategy(), 1u32..50), 0..10),
        ticks in 1u32..300,
    ) {
        let mut fs = FairShare::new(FairShareConfig::default(), 100);
        for (kind, cpus) in usages {
            fs.register("u", kind, cpus.min(100));
        }
        for t in 1..=ticks {
            fs.tick(SimTime::from_secs(60 * t as u64));
        }
        let p = fs.priority("u");
        prop_assert!(p >= 0.0);
        prop_assert!(p <= 2.0 * 10.0, "priority {p} out of bounds"); // ≤ max af × jobs
    }

    /// Priority is monotone in load: more CPUs used (same kind) never gives
    /// a better priority after the same number of ticks.
    #[test]
    fn priority_monotone_in_load(cpus_a in 1u32..50, cpus_b in 1u32..50, ticks in 1u32..100) {
        let run = |cpus: u32| {
            let mut fs = FairShare::new(FairShareConfig::default(), 100);
            fs.register("u", UsageKind::Batch, cpus);
            for t in 1..=ticks {
                fs.tick(SimTime::from_secs(60 * t as u64));
            }
            fs.priority("u")
        };
        let (lo, hi) = if cpus_a <= cpus_b { (cpus_a, cpus_b) } else { (cpus_b, cpus_a) };
        prop_assert!(run(lo) <= run(hi) + 1e-12);
    }

    /// Decay after release is strictly monotone down to the initial value,
    /// and eventually restores it exactly.
    #[test]
    fn decay_is_monotone_and_complete(busy in 1u32..50, cpus in 1u32..100) {
        let mut fs = FairShare::new(
            FairShareConfig {
                half_life: SimDuration::from_secs(600),
                delta_t: SimDuration::from_secs(60),
                initial: 0.0,
                epsilon: 1e-9,
            },
            100,
        );
        let id = fs.register("u", UsageKind::Batch, cpus.min(100));
        let mut t = 0u64;
        for _ in 0..busy {
            t += 60;
            fs.tick(SimTime::from_secs(t));
        }
        fs.release(id);
        let mut prev = fs.priority("u");
        for _ in 0..2_000 {
            t += 60;
            fs.tick(SimTime::from_secs(t));
            let p = fs.priority("u");
            prop_assert!(p <= prev + 1e-15, "decay must be monotone: {p} > {prev}");
            prev = p;
        }
        prop_assert_eq!(fs.priority("u"), 0.0, "credits fully restored");
    }

    /// filter_candidates never returns a site that violates the free-CPU
    /// constraint, and select always returns a maximal-rank candidate.
    #[test]
    fn matchmaking_respects_constraints(
        frees in prop::collection::vec(0i64..32, 1..30),
        nodes in 1u32..8,
        seed in any::<u64>(),
    ) {
        let src = format!(
            r#"Executable = "a"; JobType = {{"interactive","mpich-p4"}}; NodeNumber = {nodes};"#
        );
        let job = JobDescription::parse(&src).unwrap();
        let ads: Vec<(usize, Ad)> = frees
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let mut ad = Ad::new();
                ad.set_str("Site", format!("s{i}"))
                    .set_int("FreeCpus", f)
                    .set_bool("AcceptsQueued", true);
                (i, ad)
            })
            .collect();
        let candidates = filter_candidates(&job, &ads, true);
        for c in &candidates {
            prop_assert!(c.free_cpus >= nodes as i64);
        }
        let mut rng = SimRng::new(seed);
        let selection =
            select_detailed_with(&FreeCpusRank, &PolicySignals::new(), &candidates, &mut rng);
        if let Some(winner) = selection.winner {
            let best = candidates.iter().map(|c| c.rank).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((winner.rank - best).abs() < 1e-12);
        } else {
            prop_assert!(candidates.is_empty());
        }
    }

    /// Co-allocation plans are exact covers: they sum to the request, take
    /// no more than any site has, and exist iff the grid is big enough.
    #[test]
    fn coallocation_is_an_exact_cover(
        frees in prop::collection::vec(0i64..16, 1..20),
        nodes in 1u32..64,
    ) {
        let job = JobDescription::parse(
            r#"Executable = "a"; JobType = {"interactive","mpich-g2"}; NodeNumber = 2;"#,
        )
        .unwrap();
        let ads: Vec<(usize, Ad)> = frees
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let mut ad = Ad::new();
                ad.set_str("Site", format!("s{i}"))
                    .set_int("FreeCpus", f)
                    .set_bool("AcceptsQueued", true);
                (i, ad)
            })
            .collect();
        let candidates = filter_candidates(&job, &ads, false);
        let total_free: i64 = frees.iter().sum();
        match coallocate_with(&FreeCpusRank, &PolicySignals::new(), &candidates, nodes) {
            Some(plan) => {
                prop_assert!(total_free >= nodes as i64);
                prop_assert_eq!(plan.iter().map(|&(_, n)| n).sum::<u32>(), nodes);
                for &(site, take) in &plan {
                    prop_assert!(take as i64 <= frees[site], "site {site} over-allocated");
                    prop_assert!(take > 0);
                }
                // No site appears twice.
                let mut seen: Vec<usize> = plan.iter().map(|&(s, _)| s).collect();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), plan.len());
            }
            None => prop_assert!(total_free < nodes as i64, "plan missing though {total_free} ≥ {nodes}"),
        }
    }
}

/// One step of a random register/release/set-kind/tick interleaving.
#[derive(Debug, Clone)]
enum FsOp {
    Register {
        user: u8,
        kind: UsageKind,
        cpus: u32,
    },
    Release {
        slot: usize,
    },
    SetKind {
        slot: usize,
        kind: UsageKind,
    },
    Tick,
}

fn fs_op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        (0u8..2, kind_strategy(), 1u32..40).prop_map(|(user, kind, cpus)| FsOp::Register {
            user,
            kind,
            cpus
        }),
        (0usize..64).prop_map(|slot| FsOp::Release { slot }),
        ((0usize..64), kind_strategy()).prop_map(|(slot, kind)| FsOp::SetKind { slot, kind }),
        Just(FsOp::Tick),
        Just(FsOp::Tick), // weight ticks up so charge paths actually run
    ]
}

proptest! {
    /// Random interleavings of register / release / set-kind / tick can
    /// never leave a stale `Usage` behind or double-apply an application
    /// factor: after every step, the engine's usage count and every user's
    /// priority match a straightforward shadow fold of Equation (1) over
    /// the live usage set. In particular a usage registered and released
    /// within the same δt window is charged exactly zero times, and one
    /// that survives a tick is charged exactly once per tick. The engine
    /// sums a user's charges in registration order, as the shadow does, so
    /// the two agree to the bit.
    #[test]
    fn interleavings_never_leave_stale_usage_or_double_apply(
        ops in prop::collection::vec(fs_op_strategy(), 1..80),
    ) {
        use std::collections::HashMap;
        let config = FairShareConfig::default();
        let beta = 0.5f64.powf(
            config.delta_t.as_secs_f64() / config.half_life.as_secs_f64(),
        );
        let epsilon = config.epsilon;
        let mut fs = FairShare::new(config, 100);
        // Parallel model: slot i holds Some((user, kind, cpus)) while live.
        let mut handles: Vec<crossbroker::UsageId> = Vec::new();
        let mut live: Vec<Option<(String, UsageKind, u32)>> = Vec::new();
        let mut shadow: HashMap<String, f64> = HashMap::new();
        let mut t = 0u64;
        for op in ops {
            match op {
                FsOp::Register { user, kind, cpus } => {
                    let name = format!("u{user}");
                    handles.push(fs.register(name.as_str(), kind, cpus));
                    live.push(Some((name, kind, cpus)));
                }
                FsOp::Release { slot } => {
                    if handles.is_empty() {
                        continue;
                    }
                    let i = slot % handles.len();
                    // A second release of the same id must be harmless.
                    fs.release(handles[i]);
                    live[i] = None;
                }
                FsOp::SetKind { slot, kind } => {
                    if handles.is_empty() {
                        continue;
                    }
                    let i = slot % handles.len();
                    // On a released id this must be a no-op.
                    fs.set_kind(handles[i], kind);
                    if let Some(u) = live[i].as_mut() {
                        u.1 = kind;
                    }
                }
                FsOp::Tick => {
                    t += 60;
                    fs.tick(SimTime::from_secs(t));
                    let mut load: HashMap<String, f64> = HashMap::new();
                    for (user, kind, cpus) in live.iter().flatten() {
                        *load.entry(user.clone()).or_default() +=
                            kind.application_factor() * (f64::from(*cpus) / 100.0);
                    }
                    let users: Vec<String> = shadow
                        .keys()
                        .chain(load.keys())
                        .cloned()
                        .collect::<std::collections::HashSet<_>>()
                        .into_iter()
                        .collect();
                    for user in users {
                        let prev = shadow.get(&user).copied().unwrap_or(0.0);
                        let charge = load.get(&user).copied().unwrap_or(0.0);
                        let next = beta * prev + (1.0 - beta) * charge;
                        if next.abs() < epsilon && charge == 0.0 {
                            shadow.remove(&user);
                        } else {
                            shadow.insert(user, next);
                        }
                    }
                }
            }
            prop_assert_eq!(
                fs.active_usages(),
                live.iter().flatten().count(),
                "stale usage left behind"
            );
            for user in ["u0", "u1"] {
                let got = fs.priority(user);
                let want = shadow.get(user).copied().unwrap_or(0.0);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: engine {} vs shadow {} after {}s",
                    user,
                    got,
                    want,
                    t
                );
            }
        }
    }
}

/// A candidate and the score the policy gave it.
type Scored<'a> = (f64, &'a Candidate);

/// The selection pass as it was written with four vectors — score all,
/// partition off the NaNs, reduce to the best, collect the ties, choose one
/// — kept as the oracle of the allocation-free [`select_detailed_with`].
fn select_with_vectors(
    policy: &dyn SelectionPolicy,
    signals: &PolicySignals,
    candidates: &[Candidate],
    rng: &mut SimRng,
) -> Selection {
    let scored: Vec<Scored<'_>> = candidates
        .iter()
        .map(|c| (policy.score(c, &signals.get(c.site_index)), c))
        .collect();
    let (valid, nan): (Vec<&Scored<'_>>, Vec<&Scored<'_>>) =
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

/// Ranks that stress the comparisons: NaN, both zeros, both infinities and
/// values that tie.
const RANKS: [f64; 9] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    2.0,
    2.0,
    -3.5,
];

/// A candidate's signals by number; 0 records none. An infinite forecast
/// or RTT turns an infinite rank into a NaN score under the signal-aware
/// policies.
fn signals_numbered(n: usize) -> Option<SiteSignals> {
    let base = SiteSignals::default();
    match n {
        1 => Some(base),
        2 => Some(SiteSignals {
            queue_forecast: 2.0,
            rtt_s: 0.01,
            lease_failures: 1,
            ..base
        }),
        3 => Some(SiteSignals {
            queue_forecast: f64::INFINITY,
            rtt_s: f64::INFINITY,
            staleness_s: 100.0,
            ..base
        }),
        _ => None,
    }
}

/// A candidate as `(site, rank bits, free CPUs)`.
type Bits = (usize, u64, i64);

/// What a selection decided, comparable bit for bit.
fn decided(selection: &Selection) -> (Option<Bits>, Vec<Bits>) {
    let bits = |c: &Candidate| (c.site_index, c.rank.to_bits(), c.free_cpus);
    (
        selection.winner.as_ref().map(bits),
        selection.nan_discarded.iter().map(bits).collect(),
    )
}

proptest! {
    /// Every registered policy picks the same winner, reports the same NaN
    /// discards in the same order and leaves the caller's RNG at the same
    /// position as the four-vector pass, whether the candidates arrive in
    /// site order (as the broker hands them over) or shuffled.
    #[test]
    fn selection_without_vectors_matches_the_partition_and_ties_pass(
        drawn in prop::collection::vec((0usize..RANKS.len(), 0usize..5, 0i64..8), 0..24),
        seed in any::<u64>(),
        shuffled in 0u8..2,
    ) {
        let mut candidates: Vec<Candidate> = drawn
            .iter()
            .enumerate()
            .map(|(i, &(rank, _, free_cpus))| Candidate {
                site_index: 3 * i + rank % 2,
                rank: RANKS[rank],
                free_cpus,
            })
            .collect();
        let mut signals = PolicySignals::new();
        for (c, &(_, n, _)) in candidates.iter().zip(&drawn) {
            if let Some(s) = signals_numbered(n) {
                signals.set(c.site_index, s);
            }
        }
        if shuffled == 1 {
            SimRng::new(seed).shuffle(&mut candidates);
        }
        for kind in PolicyKind::ALL {
            let (mut rng, mut oracle_rng) = (SimRng::new(seed), SimRng::new(seed));
            let got = select_detailed_with(kind.policy(), &signals, &candidates, &mut rng);
            let want = select_with_vectors(kind.policy(), &signals, &candidates, &mut oracle_rng);
            prop_assert_eq!(decided(&got), decided(&want), "{}", kind.name());
            prop_assert_eq!(rng.u64(), oracle_rng.u64(), "{}: RNG position", kind.name());
        }
    }
}
