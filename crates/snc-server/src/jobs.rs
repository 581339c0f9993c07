//! The in-memory job store behind the async submit/poll endpoints.
//!
//! `POST /jobs` inserts a record and returns its id; the worker closure
//! advances the record through `queued → running → done/failed`;
//! `GET /jobs/{id}` snapshots it. The store is bounded: past its
//! capacity the oldest *finished* record is evicted first (falling back
//! to the oldest record of any state), so a long-running server cannot
//! accumulate results without bound. A worker finishing an evicted job
//! is a harmless no-op.

use snc_json::Json;
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lifecycle state of an async job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; the deterministic result body is stored as a JSON tree.
    Done(Json),
    /// Rejected or failed with a message.
    Failed(String),
}

impl JobStatus {
    /// Wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn is_finished(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_))
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, JobStatus>,
    /// Insertion order, for eviction.
    order: VecDeque<u64>,
    next_id: u64,
}

/// Bounded, thread-safe id → status map.
#[derive(Debug)]
pub struct JobStore {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl JobStore {
    /// Creates a store that retains at most `capacity` records
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts a fresh `Queued` record, evicting if at capacity, and
    /// returns its id (ids are sequential from 1).
    pub fn insert(&self) -> u64 {
        let mut inner = self.lock();
        if inner.map.len() >= self.capacity {
            // Oldest finished record first; otherwise the oldest record.
            let victim = inner
                .order
                .iter()
                .copied()
                .find(|id| inner.map.get(id).is_some_and(JobStatus::is_finished))
                .or_else(|| inner.order.front().copied());
            if let Some(victim) = victim {
                inner.map.remove(&victim);
                inner.order.retain(|&id| id != victim);
            }
        }
        inner.next_id += 1;
        let id = inner.next_id;
        inner.map.insert(id, JobStatus::Queued);
        inner.order.push_back(id);
        id
    }

    /// Marks `id` as running (no-op if evicted).
    pub fn set_running(&self, id: u64) {
        let mut inner = self.lock();
        if let Some(status) = inner.map.get_mut(&id) {
            *status = JobStatus::Running;
        }
    }

    /// Finishes `id` with a result body or an error (no-op if evicted).
    pub fn finish(&self, id: u64, result: Result<Json, String>) {
        let mut inner = self.lock();
        if let Some(status) = inner.map.get_mut(&id) {
            *status = match result {
                Ok(body) => JobStatus::Done(body),
                Err(message) => JobStatus::Failed(message),
            };
        }
    }

    /// Drops `id` entirely (used when queue submission fails after the
    /// record was created).
    pub fn remove(&self, id: u64) {
        let mut inner = self.lock();
        inner.map.remove(&id);
        inner.order.retain(|&other| other != id);
    }

    /// Snapshots the status of `id`.
    pub fn get(&self, id: u64) -> Option<JobStatus> {
        self.lock().map.get(&id).cloned()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_roundtrip() {
        let store = JobStore::new(8);
        let id = store.insert();
        assert_eq!(store.get(id), Some(JobStatus::Queued));
        store.set_running(id);
        assert_eq!(store.get(id), Some(JobStatus::Running));
        store.finish(id, Ok(Json::UInt(7)));
        assert_eq!(store.get(id), Some(JobStatus::Done(Json::UInt(7))));
        store.finish(id, Err("late".into()));
        assert_eq!(store.get(id), Some(JobStatus::Failed("late".into())));
        assert_eq!(store.get(id + 1), None);
    }

    #[test]
    fn ids_are_sequential_and_removal_works() {
        let store = JobStore::new(8);
        assert_eq!(store.insert(), 1);
        assert_eq!(store.insert(), 2);
        store.remove(1);
        assert_eq!(store.get(1), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.insert(), 3, "removal does not recycle ids");
    }

    #[test]
    fn eviction_prefers_finished_records() {
        let store = JobStore::new(3);
        let a = store.insert();
        let b = store.insert();
        let c = store.insert();
        store.finish(b, Ok(Json::Null));
        let d = store.insert();
        // b (oldest finished) was evicted, not a (older but unfinished).
        assert_eq!(store.get(b), None);
        assert!(store.get(a).is_some());
        assert!(store.get(c).is_some());
        assert!(store.get(d).is_some());
        assert_eq!(store.len(), 3);
        // With nothing finished, the oldest record goes.
        let e = store.insert();
        assert_eq!(store.get(a), None);
        assert!(store.get(e).is_some());
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn finishing_an_evicted_job_is_a_noop() {
        let store = JobStore::new(1);
        let a = store.insert();
        let b = store.insert();
        assert_eq!(store.get(a), None);
        store.finish(a, Ok(Json::Null));
        assert_eq!(store.get(a), None, "eviction is final");
        assert!(store.get(b).is_some());
    }

    #[test]
    fn capacity_zero_clamps_to_one_and_never_panics() {
        // The documented contract: capacity is clamped to ≥ 1 (the
        // binary separately rejects `--store-capacity 0`), so a zero
        // capacity must behave exactly like one — not panic on insert,
        // not retain unboundedly.
        let store = JobStore::new(0);
        let a = store.insert();
        assert_eq!(store.get(a), Some(JobStatus::Queued));
        assert_eq!(store.len(), 1);
        let b = store.insert();
        assert_eq!(store.get(a), None, "the single slot was recycled");
        assert_eq!(store.get(b), Some(JobStatus::Queued));
        assert_eq!(store.len(), 1);
        store.finish(b, Ok(Json::Null));
        let c = store.insert();
        assert_eq!(store.get(b), None, "finished record evicted first");
        assert!(store.get(c).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_one_cycles_through_every_lifecycle_state() {
        let store = JobStore::new(1);
        // Evicting an unfinished sole record must work (fallback arm).
        let a = store.insert();
        store.set_running(a);
        let b = store.insert();
        assert_eq!(store.get(a), None, "running record was the only victim");
        // Late transitions aimed at the evicted id must not resurrect it.
        store.set_running(a);
        store.finish(a, Err("late".into()));
        assert_eq!(store.get(a), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b), Some(JobStatus::Queued));
        // Removal on the sole record empties the store; the next insert
        // does not evict anything.
        store.remove(b);
        assert!(store.is_empty());
        let c = store.insert();
        assert_eq!(store.get(c), Some(JobStatus::Queued));
        assert_eq!(store.len(), 1);
    }
}
