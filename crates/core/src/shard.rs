//! The broker's job table, sharded for fine-grained locking, and the
//! per-job RNG derivation.
//!
//! The discrete-event simulation drives [`crate::CrossBroker`] from a single
//! thread, but nothing about the broker's *data* requires that: job records
//! are plain owned values. [`ShardedJobTable`] shards them by id across
//! independently locked maps, so concurrent readers (stats, monitoring,
//! exporters) and writers touch disjoint locks. The live broker stores its
//! job table here.
//!
//! # Lock order
//!
//! `shard lock → event log lock`. A shard lock is never taken while the
//! event-log mutex is held, and no code path holds two shard locks at once
//! (every operation touches exactly one job id, and whole-table walks lock
//! shards strictly one at a time).
//!
//! # Per-job randomness
//!
//! [`job_rng`] derives a `SimRng` from (salt, job id). The live sweep
//! draws its query-retry jitter from it, so a job's back-off delays do not
//! depend on how many other jobs drew from the simulation's shared stream
//! before it.

use crate::sync::{Mutex, MutexGuard};
use std::collections::BTreeMap;

use cg_sim::SimRng;

use crate::job::JobId;

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

/// Derives a deterministic per-job RNG from a seed and the job id. The
/// multiply-xor spreads consecutive ids across the seed space so
/// neighbouring jobs don't draw correlated streams.
#[must_use]
pub fn job_rng(seed: u64, job: JobId) -> SimRng {
    let mut x = seed ^ job.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SimRng::new(x ^ (x >> 31))
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
