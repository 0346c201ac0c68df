//! The sharded broker core: a fine-grained-locking job table and a
//! deterministic parallel matchmaking engine.
//!
//! The discrete-event simulation drives [`crate::CrossBroker`] from a single
//! thread, but nothing about the broker's *data* requires that: job records
//! are plain owned values and matchmaking is a pure function of (job ad,
//! site ads, per-job RNG). This module exploits both facts.
//!
//! - [`ShardedJobTable`] shards job records by id across independently
//!   locked maps, so thousands of concurrent readers and writers touch
//!   disjoint locks. The live broker stores its job table here, and the
//!   parallel engine's worker threads write into the same structure.
//! - [`ParallelMatcher`] runs discovery-snapshot matchmaking for a batch of
//!   submissions across worker threads, then commits capacity in a single
//!   deterministic pass, so an 8-thread run lands every job in exactly the
//!   terminal bucket the 1-thread run produces.
//!
//! # Lock order
//!
//! `shard lock → event log lock`. A shard lock is never taken while the
//! event-log mutex is held, and no code path holds two shard locks at once
//! (every operation touches exactly one job id, and whole-table walks lock
//! shards strictly one at a time). The commit phase touches per-site
//! capacity only from the single commit thread, so site state needs no lock
//! at all.
//!
//! # Determinism contract
//!
//! A job's selection randomness comes from [`job_rng`], a per-job
//! `SimRng` derived from (engine seed, job id) — never from a shared
//! stream. Rank ties are broken by shuffling each exact-rank group with
//! that RNG; the commit phase then walks jobs in ascending id order against
//! live capacity. Both steps are independent of thread count and OS
//! scheduling, which is what the sharded-vs-sequential equivalence sweep
//! pins down.

use crate::sync::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;

use cg_jdl::{Ad, JobDescription};
use cg_sim::{SimRng, SimTime};
use cg_site::AdSnapshot;
use cg_trace::{Event, EventLog};

use crate::job::{JobId, JobRecord, JobState};
use crate::matchmaking::{
    filter_candidates_columnar, filter_candidates_compiled, Candidate, CompiledJob,
};
use crate::policy::{preference_order, PolicyKind, PolicySignals};

/// Default shard count for the broker's job table: enough to make lock
/// collisions rare at realistic thread counts without bloating the struct.
pub const DEFAULT_SHARDS: usize = 16;

/// A job-id-sharded map with one mutex per shard.
///
/// Records for different jobs living in different shards can be read and
/// written fully in parallel; contention only arises between jobs whose ids
/// collide modulo the shard count. Sequence-sensitive callers (the sim-side
/// broker) see exactly the semantics of a single map because every
/// operation is atomic per job id.
pub struct ShardedJobTable<T> {
    shards: Box<[Mutex<BTreeMap<u64, T>>]>,
}

impl<T> ShardedJobTable<T> {
    /// Creates a table with `shards` independent locks (minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedJobTable {
            shards: (0..shards)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, id: JobId) -> MutexGuard<'_, BTreeMap<u64, T>> {
        let idx = (id.0 % self.shards.len() as u64) as usize;
        self.shards[idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Inserts (or replaces) the record for `id`.
    pub fn insert(&self, id: JobId, value: T) -> Option<T> {
        self.shard(id).insert(id.0, value)
    }

    /// Removes and returns the record for `id`.
    pub fn remove(&self, id: JobId) -> Option<T> {
        self.shard(id).remove(&id.0)
    }

    /// True when a record for `id` exists.
    #[must_use]
    pub fn contains(&self, id: JobId) -> bool {
        self.shard(id).contains_key(&id.0)
    }

    /// Runs `f` over the record for `id` under the shard lock.
    pub fn with<R>(&self, id: JobId, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.shard(id).get(&id.0).map(f)
    }

    /// Runs `f` mutably over the record for `id` under the shard lock.
    pub fn update<R>(&self, id: JobId, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.shard(id).get_mut(&id.0).map(f)
    }

    /// Total records across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// True when no shard holds a record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `f` holds for some record. Locks shards one at a time.
    pub fn any(&self, mut f: impl FnMut(&T) -> bool) -> bool {
        self.shards.iter().any(|s| {
            s.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .values()
                .any(&mut f)
        })
    }

    /// Visits every record by reference, without cloning. Shards are locked
    /// strictly one at a time (never two at once), so each shard's records
    /// are observed atomically under one lock hold — the per-shard
    /// sequential consistency stats readers rely on. Ids ascend *within*
    /// a shard, not globally; callers that need global id order should
    /// collect and sort (see [`ShardedJobTable::snapshot`]).
    ///
    /// `f` must not reenter the table (the lock order is shard lock →
    /// event-log lock, and a shard lock is held while `f` runs).
    pub fn for_each(&self, mut f: impl FnMut(JobId, &T)) {
        for s in &self.shards {
            let guard = s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (id, v) in guard.iter() {
                f(JobId(*id), v);
            }
        }
    }
}

impl<T: Clone> ShardedJobTable<T> {
    /// Clones out the record for `id`.
    #[must_use]
    pub fn get(&self, id: JobId) -> Option<T> {
        self.shard(id).get(&id.0).cloned()
    }

    /// Clones out every record, sorted by job id. Locks shards one at a
    /// time (never two at once), so the result is a per-shard-consistent
    /// merge — exact when no writer is concurrent, which is always true on
    /// the single-threaded sim path.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(JobId, T)> {
        let mut out: Vec<(JobId, T)> = Vec::new();
        for s in &self.shards {
            let guard = s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(guard.iter().map(|(id, v)| (JobId(*id), v.clone())));
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

impl<T> Default for ShardedJobTable<T> {
    fn default() -> Self {
        ShardedJobTable::new(DEFAULT_SHARDS)
    }
}

impl<T> std::fmt::Debug for ShardedJobTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedJobTable")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

/// Derives the deterministic per-job selection RNG from the engine seed and
/// the job id. The multiply-xor spreads consecutive ids across the seed
/// space so neighbouring jobs don't draw correlated streams.
#[must_use]
pub fn job_rng(seed: u64, job: JobId) -> SimRng {
    let mut x = seed ^ job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SimRng::new(x ^ (x >> 31))
}

/// One submission handed to the parallel engine.
#[derive(Debug, Clone)]
pub struct MatchRequest {
    /// Broker-wide job id (must be unique within the batch).
    pub id: JobId,
    /// The job's parsed description.
    pub job: JobDescription,
}

/// Where a job ended up after the engine's commit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// Capacity was leased and the job dispatched to this site.
    Dispatched {
        /// Index into the engine's ad list.
        site_index: usize,
        /// Site name from the ad.
        site: String,
    },
    /// Batch job with no immediate capacity: parked on the broker queue.
    Queued,
    /// Interactive job no site can host: failed.
    NoResources,
}

impl MatchOutcome {
    /// The terminal disposition bucket, comparable with
    /// [`cg_trace::Bucket`]-style coarse buckets in the equivalence sweep.
    #[must_use]
    pub fn bucket(&self) -> &'static str {
        match self {
            MatchOutcome::Dispatched { .. } => "dispatched",
            MatchOutcome::Queued => "queued",
            MatchOutcome::NoResources => "no-resources",
        }
    }
}

/// Per-job result of phase 1 (pure, thread-parallel matchmaking).
struct Matched {
    id: JobId,
    /// Candidate sites in deterministic preference order.
    prefs: Vec<Candidate>,
    /// Sites whose rank evaluated to NaN (traced, never preferred).
    nan_sites: Vec<String>,
    nodes: u32,
    interactive: bool,
    user: String,
}

/// The engine's view of the discovery snapshot: either the historical
/// map-shaped ad list or the columnar epoch-tagged [`AdSnapshot`]. Both
/// feed the same per-site matchmaking semantics, so the outcome vector is
/// identical either way — the columnar store just scans flat arrays.
enum AdStore {
    Map(Vec<(usize, Arc<Ad>)>),
    Columnar(Arc<AdSnapshot>),
}

impl AdStore {
    /// The name the site a candidate's `site_index` points at advertises.
    fn site_name(&self, site_index: usize) -> &str {
        let name = match self {
            AdStore::Map(ads) => ads
                .iter()
                .find(|(i, _)| *i == site_index)
                .and_then(|(_, ad)| ad.get_norm("site"))
                .and_then(|v| v.as_str()),
            AdStore::Columnar(snap) => snap.site_name(site_index),
        };
        name.unwrap_or("<unnamed>")
    }
}

/// A deterministic parallel matchmaking engine over a discovery snapshot.
///
/// Phase 1 fans the batch out over worker threads: each job is filtered and
/// ranked against the shared ad snapshot, its rank-tie groups shuffled with
/// its own [`job_rng`] stream, and its submission events flushed to the
/// (thread-safe) [`EventLog`] as one contiguous batch. Phase 2 walks jobs
/// in ascending id order on the calling thread, leasing live capacity down
/// the preference list — cheap bookkeeping, so the parallel phase dominates
/// wall-clock. The outcome vector is a pure function of (requests, ads,
/// seed): thread count only changes how fast it is produced, and the
/// columnar engine ([`ParallelMatcher::from_snapshot`]) produces the same
/// vector as the map engine over the same ads.
pub struct ParallelMatcher {
    ads: AdStore,
    seed: u64,
    policy: PolicyKind,
    signals: PolicySignals,
    backend_label: String,
}

impl ParallelMatcher {
    /// Creates an engine over a discovery snapshot. `ads` pairs each site's
    /// index with its advertisement; `seed` roots every per-job RNG. The
    /// engine scores with the default [`PolicyKind::FreeCpusRank`] and no
    /// signals — the paper's behaviour — unless overridden with
    /// [`ParallelMatcher::with_policy`]/[`ParallelMatcher::with_signals`].
    #[must_use]
    pub fn new(ads: Vec<(usize, Ad)>, seed: u64) -> Self {
        ParallelMatcher::from_indexed(
            ads.into_iter().map(|(i, ad)| (i, Arc::new(ad))).collect(),
            seed,
        )
    }

    /// Like [`ParallelMatcher::new`], but over ads already behind `Arc` —
    /// the shape [`AdSnapshot::indexed_ads`] hands out, so building a map
    /// engine from a snapshot costs refcount bumps, not deep ad clones.
    #[must_use]
    pub fn from_indexed(ads: Vec<(usize, Arc<Ad>)>, seed: u64) -> Self {
        ParallelMatcher {
            ads: AdStore::Map(ads),
            seed,
            policy: PolicyKind::default(),
            signals: PolicySignals::new(),
            backend_label: "sim-lrms".to_string(),
        }
    }

    /// Creates an engine scanning a columnar [`AdSnapshot`] in place — an
    /// `Arc` clone, no per-batch ad copies. Site index `i` is the snapshot
    /// position, matching [`ParallelMatcher::new`] over
    /// `snapshot.indexed_ads()`; outcomes are bit-identical to that map
    /// engine at every thread count.
    #[must_use]
    pub fn from_snapshot(snapshot: Arc<AdSnapshot>, seed: u64) -> Self {
        ParallelMatcher {
            ads: AdStore::Columnar(snapshot),
            seed,
            policy: PolicyKind::default(),
            signals: PolicySignals::new(),
            backend_label: "sim-lrms".to_string(),
        }
    }

    /// Sets the engine-wide selection policy. A job carrying its own valid
    /// JDL `SelectionPolicy` attribute still overrides this per job.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches per-site signals (queue forecasts, RTTs, lease failures)
    /// for signal-driven policies to consult.
    #[must_use]
    pub fn with_signals(mut self, signals: PolicySignals) -> Self {
        self.signals = signals;
        self
    }

    /// Sets the backend label stamped on every `JobDispatched` event this
    /// engine records. The matcher works from ads, which do not carry a
    /// site's execution backend, so the store-level label defaults to
    /// `"sim-lrms"`; callers driving non-sim backends override it here.
    #[must_use]
    pub fn with_backend_label(mut self, label: impl Into<String>) -> Self {
        self.backend_label = label.into();
        self
    }

    /// Runs the batch on `threads` workers, recording lifecycle events into
    /// `log` and leaving a [`JobRecord`] per job in `table`. Returns each
    /// job's outcome, in the order of `requests`.
    ///
    /// # Panics
    /// Panics if a worker thread panics.
    pub fn run(
        &self,
        requests: &[MatchRequest],
        threads: usize,
        log: &EventLog,
        table: &ShardedJobTable<JobRecord>,
    ) -> Vec<(JobId, MatchOutcome)> {
        let threads = threads.max(1);
        let now = SimTime::ZERO;
        let mut matched: Vec<Option<Matched>> = Vec::with_capacity(requests.len());
        matched.resize_with(requests.len(), || None);

        // Phase 1: pure per-job matchmaking, striped across workers.
        let slots = Mutex::new(&mut matched);
        std::thread::scope(|scope| {
            for w in 0..threads {
                let slots = &slots;
                let ads = &self.ads;
                let seed = self.seed;
                let policy = self.policy;
                let signals = &self.signals;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Matched)> = Vec::new();
                    for (i, req) in requests.iter().enumerate() {
                        if i % threads != w {
                            continue;
                        }
                        let m = match_one(req, ads, seed, policy, signals);
                        let mut events = vec![Event::JobSubmitted {
                            job: m.id.0,
                            user: m.user.clone(),
                            interactive: m.interactive,
                        }];
                        events.extend(m.nan_sites.iter().map(|site| Event::RankNanDiscarded {
                            job: m.id.0,
                            site: site.clone(),
                        }));
                        log.record_many(now, events);
                        let mut record = JobRecord::new(m.id, m.user.clone(), now);
                        record.state = JobState::Matching;
                        record.discovered_at = Some(now);
                        table.insert(m.id, record);
                        local.push((i, m));
                    }
                    let mut guard = slots
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    for (i, m) in local {
                        guard[i] = Some(m);
                    }
                });
            }
        });

        // Phase 2: deterministic commit against live capacity, ascending
        // job id — identical regardless of how phase 1 was scheduled. The
        // columnar arm reads the pre-extracted column, which is derived
        // with exactly the map arm's expression.
        let mut free: BTreeMap<usize, i64> = match &self.ads {
            AdStore::Map(ads) => ads
                .iter()
                .map(|(i, ad)| (*i, ad.get("FreeCpus").and_then(|v| v.as_i64()).unwrap_or(0)))
                .collect(),
            AdStore::Columnar(snap) => (0..snap.len()).map(|i| (i, snap.free_cpus(i))).collect(),
        };
        let mut jobs: Vec<Matched> = matched.into_iter().flatten().collect();
        jobs.sort_by_key(|m| m.id);
        let mut outcomes: BTreeMap<JobId, MatchOutcome> = BTreeMap::new();
        for m in jobs {
            let chosen = m.prefs.iter().find(|c| {
                free.get(&c.site_index)
                    .is_some_and(|&f| f >= i64::from(m.nodes))
            });
            let outcome = match chosen {
                Some(c) => {
                    *free.get_mut(&c.site_index).expect("site exists") -= i64::from(m.nodes);
                    let site = self.ads.site_name(c.site_index);
                    log.record_many(
                        now,
                        [
                            Event::LeaseGranted {
                                job: m.id.0,
                                target: format!("site:{site}"),
                                until_ns: 0,
                            },
                            Event::JobDispatched {
                                job: m.id.0,
                                target: format!("site:{site}"),
                                backend: self.backend_label.clone(),
                            },
                        ],
                    );
                    table.update(m.id, |r| {
                        r.selected_at = Some(now);
                        r.dispatched_at = Some(now);
                        r.state = JobState::Scheduled {
                            site: site.to_string(),
                        };
                    });
                    MatchOutcome::Dispatched {
                        site_index: c.site_index,
                        site: site.to_string(),
                    }
                }
                None if !m.interactive => {
                    log.record(now, Event::JobQueued { job: m.id.0 });
                    table.update(m.id, |r| r.state = JobState::BrokerQueued);
                    MatchOutcome::Queued
                }
                None => {
                    log.record(
                        now,
                        Event::JobFailed {
                            job: m.id.0,
                            reason: "no resources match the interactive job".into(),
                        },
                    );
                    table.update(m.id, |r| {
                        r.state = JobState::Failed {
                            reason: "no resources match the interactive job".into(),
                        };
                    });
                    MatchOutcome::NoResources
                }
            };
            outcomes.insert(m.id, outcome);
        }
        requests
            .iter()
            .map(|r| (r.id, outcomes[&r.id].clone()))
            .collect()
    }

    /// Reference implementation: the obvious one-job-at-a-time loop with no
    /// worker threads, no striping and no deferred commit. The equivalence
    /// sweep compares [`ParallelMatcher::run`] against this.
    pub fn run_sequential(
        &self,
        requests: &[MatchRequest],
        log: &EventLog,
        table: &ShardedJobTable<JobRecord>,
    ) -> Vec<(JobId, MatchOutcome)> {
        self.run(requests, 1, log, table)
    }
}

/// Phase-1 matchmaking for one job: filter, score under the effective
/// policy, deterministic tie-broken preference order. Pure — depends only
/// on the request, the ads, the engine seed and the (immutable) policy
/// signals. A job carrying a valid JDL `SelectionPolicy` overrides the
/// engine default; unknown spellings fall back (the analyzer has already
/// warned).
fn match_one(
    req: &MatchRequest,
    ads: &AdStore,
    seed: u64,
    policy: PolicyKind,
    signals: &PolicySignals,
) -> Matched {
    let compiled = CompiledJob::prepare(&req.job);
    let interactive = req.job.is_interactive();
    let candidates = match ads {
        AdStore::Map(ads) => filter_candidates_compiled(&req.job, &compiled, ads, interactive),
        AdStore::Columnar(snap) => {
            filter_candidates_columnar(&req.job, &compiled, snap, interactive)
        }
    };
    let effective = req
        .job
        .selection_policy
        .as_deref()
        .and_then(PolicyKind::parse)
        .unwrap_or(policy);
    let mut rng = job_rng(seed, req.id);
    let (prefs, nan): (Vec<Candidate>, Vec<Candidate>) =
        preference_order(effective.policy(), signals, candidates, &mut rng);
    Matched {
        id: req.id,
        prefs,
        nan_sites: nan
            .into_iter()
            .map(|c| ads.site_name(c.site_index).to_string())
            .collect(),
        nodes: req.job.node_number,
        interactive,
        user: req.job.user.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_routes_ids_to_stable_shards() {
        let t: ShardedJobTable<u32> = ShardedJobTable::new(4);
        for i in 0..100 {
            t.insert(JobId(i), i as u32);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(JobId(42)), Some(42));
        assert_eq!(t.update(JobId(42), |v| std::mem::replace(v, 7)), Some(42));
        assert_eq!(t.get(JobId(42)), Some(7));
        assert_eq!(t.remove(JobId(42)), Some(7));
        assert!(!t.contains(JobId(42)));
        assert_eq!(t.len(), 99);
    }

    #[test]
    fn snapshot_is_sorted_by_job_id() {
        let t: ShardedJobTable<&'static str> = ShardedJobTable::new(3);
        for i in [9_u64, 2, 7, 0, 4] {
            t.insert(JobId(i), "x");
        }
        let ids: Vec<u64> = t.snapshot().iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn concurrent_shard_writers_do_not_lose_records() {
        let t: std::sync::Arc<ShardedJobTable<u64>> = std::sync::Arc::new(ShardedJobTable::new(8));
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let id = JobId(w * 500 + i);
                        t.insert(id, id.0);
                        t.update(id, |v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(t.len(), 4_000);
        for (id, v) in t.snapshot() {
            assert_eq!(v, id.0 + 1);
        }
    }

    #[test]
    fn for_each_visits_without_cloning_in_per_shard_id_order() {
        let t: ShardedJobTable<String> = ShardedJobTable::new(3);
        for i in [9_u64, 2, 7, 0, 4] {
            t.insert(JobId(i), format!("j{i}"));
        }
        let mut per_shard_last: BTreeMap<u64, u64> = BTreeMap::new();
        let mut seen = Vec::new();
        t.for_each(|id, v| {
            assert_eq!(v, &format!("j{}", id.0));
            let shard = id.0 % 3;
            if let Some(&last) = per_shard_last.get(&shard) {
                assert!(id.0 > last, "ids ascend within shard {shard}");
            }
            per_shard_last.insert(shard, id.0);
            seen.push(id.0);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 4, 7, 9]);
    }

    #[test]
    fn for_each_observes_each_shard_seq_consistently() {
        // Ids 0 and 4 land in the same shard of a 4-shard table. The writer
        // always bumps 0 before 4, so at every instant v0 ∈ {v4, v4 + 1};
        // a visitor that observes the whole shard under one lock hold must
        // never see anything else (a per-entry reader could see v4 > v0
        // after the writer laps it between the two reads).
        let t: ShardedJobTable<u64> = ShardedJobTable::new(4);
        t.insert(JobId(0), 0);
        t.insert(JobId(4), 0);
        std::thread::scope(|s| {
            let writer = {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..20_000 {
                        t.update(JobId(0), |v| *v += 1);
                        t.update(JobId(4), |v| *v += 1);
                    }
                })
            };
            for _ in 0..2_000 {
                let (mut v0, mut v4) = (0, 0);
                t.for_each(|id, &v| match id.0 {
                    0 => v0 = v,
                    4 => v4 = v,
                    _ => unreachable!("only ids 0 and 4 were inserted"),
                });
                assert!(
                    v0 == v4 || v0 == v4 + 1,
                    "shard observed mid-write: v0={v0} v4={v4}"
                );
            }
            writer.join().unwrap();
        });
        assert_eq!(t.get(JobId(0)), Some(20_000));
        assert_eq!(t.get(JobId(4)), Some(20_000));
    }

    #[test]
    fn job_rng_is_stable_and_per_job() {
        let a1: Vec<u64> = {
            let mut r = job_rng(1, JobId(5));
            (0..4).map(|_| r.u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = job_rng(1, JobId(5));
            (0..4).map(|_| r.u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = job_rng(1, JobId(6));
            (0..4).map(|_| r.u64()).collect()
        };
        assert_eq!(a1, a2, "same (seed, job) ⇒ same stream");
        assert_ne!(a1, b, "neighbouring jobs draw different streams");
    }
}
