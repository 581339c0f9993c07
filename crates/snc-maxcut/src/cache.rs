//! Deterministic caching for the offline SDP stage, and the sharded LRU
//! behind both of the workspace's caches.
//!
//! The Burer–Monteiro factor the LIF-GW and LIF-annealed circuits
//! program into their synapses is a pure function of `(graph, sdp seed,
//! rank)`: it is bit-for-bit reproducible given those three inputs.
//! [`SdpCache`] memoizes exactly that function, so repeated solves of
//! the same graph (LIF-GW then LIF-annealed, anneal restarts, repeated
//! service requests, figure sweeps) pay the SDP once and re-run only the
//! stochastic circuit stage the paper actually studies. Its hit/miss
//! counters are therefore a census of every unweighted SDP the circuit
//! families need; weighted graphs and the MAX2SAT/MAXDICUT extensions
//! solve their SDPs inline.
//!
//! ## Determinism contract
//!
//! A cache hit returns the *identical* factor matrix a cold solve would
//! have computed (the SDP is deterministic in its seed), and the factor
//! is consumed read-only by the sampling stage, whose RNG streams derive
//! from separate seed slots. Therefore [`crate::solve::solve_with_cache`]
//! with a warm cache produces bit-for-bit the outcome of a cold
//! [`crate::solve::solve`] — pinned by the cache-equivalence tests.
//!
//! ## Structure
//!
//! [`ShardedLru`] is a bounded, cost-weighted LRU. A caller-supplied
//! 64-bit digest picks one of up to eight shards, each an independent
//! recency list behind its own `std::sync::Mutex`, and pre-filters
//! lookups; a hit also needs the caller's full-key comparison, so a
//! digest collision degrades to a miss, never to a wrong value.
//! [`SdpCache`] is that LRU at cost 1 per entry, routed by the graph
//! fingerprint's fold, with the graph itself in the key; `snc-server`'s
//! response cache is the same LRU with byte costs. **No lock is ever
//! held across an SDP solve** — on a miss the shard lock is released,
//! the factor is computed, and the lock is retaken to insert. Two
//! threads missing the same key concurrently both compute (identical)
//! factors; the second insert is dropped.

use crate::gw::{solve_gw, GwConfig, GwSolution};
use snc_graph::Graph;
use snc_linalg::{LinalgError, SdpConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most shards a [`ShardedLru`] spreads its budget over.
const MAX_SHARDS: usize = 8;
/// Entries per shard below which adding another shard stops paying:
/// small caches use fewer (down to one) shards so that the configured
/// capacity stays exact and tests can reason about eviction order.
const MIN_ENTRIES_PER_SHARD: usize = 8;

/// A traffic snapshot of a [`ShardedLru`]. Counters are monotonic since
/// construction; `entries` and `used` describe the current contents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Cost currently charged against the budget.
    pub used: u64,
}

struct Slot<K, V> {
    digest: u64,
    key: K,
    value: V,
    cost: usize,
}

/// One shard: an LRU list (front = least recently used) plus its cost
/// ledger.
struct Shard<K, V> {
    slots: VecDeque<Slot<K, V>>,
    used: usize,
}

/// A bounded, sharded, thread-safe LRU whose entries each charge a cost
/// against the budget. See the module docs.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard_budget", &self.per_shard_budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> ShardedLru<K, V> {
    /// Creates a cache with a total budget of `capacity` cost units over
    /// `capacity / min_per_shard` shards, clamped to `1..=8`. Each shard
    /// owns the floored share `capacity / shards`, so the shards together
    /// never retain more than `capacity`. `capacity == 0` disables the
    /// cache: every lookup misses, inserts are dropped, and nothing
    /// panics.
    pub fn new(capacity: usize, min_per_shard: usize) -> Self {
        let shards = if capacity == 0 {
            0
        } else {
            (capacity / min_per_shard).clamp(1, MAX_SHARDS)
        };
        Self {
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        slots: VecDeque::new(),
                        used: 0,
                    })
                })
                .collect(),
            per_shard_budget: capacity.checked_div(shards).unwrap_or(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the cache can retain anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard_budget > 0
    }

    /// Total cost the cache may retain.
    pub fn capacity(&self) -> usize {
        self.per_shard_budget * self.shards.len()
    }

    /// A traffic snapshot (each counter is read atomically, the snapshot
    /// as a whole is not — it is exact once traffic quiesces).
    pub fn stats(&self) -> LruStats {
        let (mut entries, mut used) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            entries += shard.slots.len() as u64;
            used += shard.used as u64;
        }
        LruStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            used,
        }
    }

    fn shard(&self, digest: u64) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[(digest % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: PartialEq, V: Clone> ShardedLru<K, V> {
    /// Returns the value stored under `digest` whose key satisfies
    /// `matches`, and makes it the most recently used entry of its
    /// shard. Every call counts exactly one hit or one miss.
    pub fn get(&self, digest: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        if self.is_enabled() {
            let mut shard = self.shard(digest);
            if let Some(idx) = shard
                .slots
                .iter()
                .position(|s| s.digest == digest && matches(&s.key))
            {
                let slot = shard.slots.remove(idx).expect("index from position");
                let value = slot.value.clone();
                shard.slots.push_back(slot);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(value);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `value` under `key`, charging `cost` and evicting least
    /// recently used entries of the shard until it fits. An entry that
    /// costs more than a shard's budget is dropped, and inserting a
    /// resident key is a no-op: callers cache only values that are pure
    /// functions of their key.
    pub fn insert(&self, digest: u64, key: K, value: V, cost: usize) {
        if !self.is_enabled() || cost > self.per_shard_budget {
            return;
        }
        let mut shard = self.shard(digest);
        if shard
            .slots
            .iter()
            .any(|s| s.digest == digest && s.key == key)
        {
            return;
        }
        while shard.used + cost > self.per_shard_budget {
            let evicted = shard.slots.pop_front().expect("used > 0 implies entries");
            shard.used -= evicted.cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.used += cost;
        shard.slots.push_back(Slot {
            digest,
            key,
            value,
            cost,
        });
    }
}

/// Counters describing cache traffic (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// Every input the SDP depends on, the graph included so that a
/// fingerprint collision reads as a miss, not a wrong factor.
#[derive(PartialEq)]
struct SdpKey {
    seed: u64,
    rank: usize,
    graph: Graph,
}

/// A bounded, sharded, thread-safe memo of SDP factor/bound pairs keyed
/// by `(graph, sdp seed, rank)` and routed by the graph fingerprint. See
/// the module docs for the determinism contract.
#[derive(Debug)]
pub struct SdpCache {
    lru: ShardedLru<SdpKey, Arc<GwSolution>>,
}

impl SdpCache {
    /// Creates a cache retaining at most `capacity` factor entries in
    /// total. `capacity == 0` means *disabled*: every lookup misses,
    /// inserts are dropped, and nothing panics.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: ShardedLru::new(capacity, MIN_ENTRIES_PER_SHARD),
        }
    }

    /// Total entries the cache may retain.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// A traffic snapshot. Counters are monotonic; `entries` is the
    /// current resident count (each counter is read atomically, the
    /// snapshot as a whole is not — consistent once traffic quiesces).
    pub fn stats(&self) -> CacheStats {
        let s = self.lru.stats();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries,
        }
    }

    /// Returns the memoized SDP solution for `(graph, seed, rank)`,
    /// computing (and caching) it on a miss.
    ///
    /// The shard lock is held only for the lookup and the insert — never
    /// across the SDP solve itself, so concurrent solves of distinct
    /// graphs proceed in parallel and concurrent solves of the *same*
    /// graph merely duplicate (deterministic, identical) work.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the SDP stage; failures are not
    /// cached.
    pub fn get_or_solve(
        &self,
        graph: &Graph,
        seed: u64,
        rank: usize,
    ) -> Result<Arc<GwSolution>, LinalgError> {
        self.get_or_solve_traced(graph, seed, rank)
            .map(|(solution, _)| solution)
    }

    /// [`SdpCache::get_or_solve`], additionally reporting whether the
    /// solution was freshly solved (`true`) or served from the cache
    /// (`false`) — so callers timing the SDP stage can attribute the
    /// elapsed time to a real solve rather than a lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the SDP stage; failures are not
    /// cached.
    pub fn get_or_solve_traced(
        &self,
        graph: &Graph,
        seed: u64,
        rank: usize,
    ) -> Result<(Arc<GwSolution>, bool), LinalgError> {
        let digest = graph.fingerprint().fold();
        if let Some(solution) = self.lru.get(digest, |k| {
            k.seed == seed && k.rank == rank && k.graph == *graph
        }) {
            return Ok((solution, false));
        }
        // Lock released: compute outside any shard lock.
        let cfg = GwConfig {
            sdp: SdpConfig {
                rank,
                seed,
                ..SdpConfig::default()
            },
        };
        let solution = Arc::new(solve_gw(graph, &cfg)?);
        let key = SdpKey {
            seed,
            rank,
            graph: graph.clone(),
        };
        self.lru.insert(digest, key, Arc::clone(&solution), 1);
        Ok((solution, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_graph::generators::erdos_renyi::gnp;

    #[test]
    fn hit_returns_the_identical_solution() {
        let cache = SdpCache::new(4);
        let g = gnp(12, 0.5, 3).unwrap();
        let cold = cache.get_or_solve(&g, 9, 4).unwrap();
        let warm = cache.get_or_solve(&g, 9, 4).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "hit shares the stored factor");
        assert_eq!(cold.factors, warm.factors);
        assert_eq!(cold.sdp_bound, warm.sdp_bound);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_seeds_ranks_and_graphs_are_distinct_entries() {
        let cache = SdpCache::new(8);
        let g = gnp(10, 0.5, 1).unwrap();
        let h = gnp(10, 0.5, 2).unwrap();
        let a = cache.get_or_solve(&g, 1, 4).unwrap();
        let b = cache.get_or_solve(&g, 2, 4).unwrap();
        let c = cache.get_or_solve(&g, 1, 3).unwrap();
        let d = cache.get_or_solve(&h, 1, 4).unwrap();
        assert_eq!(cache.stats().misses, 4, "four distinct keys");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(c.factors.cols(), 3);
        // Same key again: all hits.
        assert!(Arc::ptr_eq(&a, &cache.get_or_solve(&g, 1, 4).unwrap()));
        assert!(Arc::ptr_eq(&b, &cache.get_or_solve(&g, 2, 4).unwrap()));
        assert!(Arc::ptr_eq(&d, &cache.get_or_solve(&h, 1, 4).unwrap()));
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let cache = SdpCache::new(2);
        assert_eq!(cache.capacity(), 2);
        let graphs: Vec<_> = (0..3).map(|s| gnp(8, 0.6, s).unwrap()).collect();
        for g in &graphs {
            cache.get_or_solve(g, 7, 2).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "capacity is a hard bound");
        assert_eq!(stats.evictions, 1);
        // graphs[0] was the LRU victim; graphs[1] and graphs[2] are warm.
        cache.get_or_solve(&graphs[1], 7, 2).unwrap();
        cache.get_or_solve(&graphs[2], 7, 2).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_solve(&graphs[0], 7, 2).unwrap();
        assert_eq!(cache.stats().misses, 4, "victim re-solves");
    }

    #[test]
    fn lru_touch_protects_recently_hit_entries() {
        let cache = SdpCache::new(2);
        let a = gnp(8, 0.6, 10).unwrap();
        let b = gnp(8, 0.6, 11).unwrap();
        let c = gnp(8, 0.6, 12).unwrap();
        cache.get_or_solve(&a, 1, 2).unwrap();
        cache.get_or_solve(&b, 1, 2).unwrap();
        cache.get_or_solve(&a, 1, 2).unwrap(); // touch a: b is now LRU
        cache.get_or_solve(&c, 1, 2).unwrap(); // evicts b
        let hits_before = cache.stats().hits;
        cache.get_or_solve(&a, 1, 2).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "a survived");
        cache.get_or_solve(&b, 1, 2).unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1, "b was evicted");
    }

    #[test]
    fn capacity_zero_disables_without_panicking() {
        let cache = SdpCache::new(0);
        assert!(!cache.lru.is_enabled());
        assert_eq!(cache.capacity(), 0);
        let g = gnp(8, 0.5, 4).unwrap();
        let a = cache.get_or_solve(&g, 1, 2).unwrap();
        let b = cache.get_or_solve(&g, 1, 2).unwrap();
        assert_eq!(a.factors, b.factors, "still deterministic, just uncached");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.evictions),
            (0, 2, 0, 0)
        );
    }

    #[test]
    fn capacity_one_holds_exactly_one_entry() {
        let cache = SdpCache::new(1);
        assert_eq!(cache.capacity(), 1);
        let a = gnp(8, 0.5, 20).unwrap();
        let b = gnp(8, 0.5, 21).unwrap();
        cache.get_or_solve(&a, 1, 2).unwrap();
        cache.get_or_solve(&a, 1, 2).unwrap();
        assert_eq!(cache.stats().hits, 1);
        cache.get_or_solve(&b, 1, 2).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
    }

    fn shard_count(capacity: usize, min_per_shard: usize) -> usize {
        let lru = ShardedLru::<u8, u8>::new(capacity, min_per_shard);
        if lru.is_enabled() {
            lru.shards.len()
        } else {
            0
        }
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        assert_eq!(shard_count(0, 8), 0);
        assert_eq!(shard_count(1, 8), 1);
        assert_eq!(shard_count(7, 8), 1);
        assert_eq!(shard_count(16, 8), 2);
        assert_eq!(shard_count(64, 8), 8);
        assert_eq!(shard_count(10_000, 8), 8, "clamped at MAX_SHARDS");
        // Capacity stays a hard bound under flooring.
        let cache = SdpCache::new(65);
        assert!(cache.capacity() <= 65);
        assert!(cache.capacity() >= 64);
    }

    #[test]
    fn shard_count_scales_with_budget() {
        // Tiny byte budgets collapse to one shard; big budgets spread to 8.
        assert_eq!(shard_count(4 * 1024, 64 * 1024), 1);
        assert_eq!(shard_count(128 * 1024, 64 * 1024), 2);
        assert_eq!(shard_count(8 << 20, 64 * 1024), 8);
        let lru = ShardedLru::<u8, u8>::new(8 << 20, 64 * 1024);
        assert_eq!(lru.capacity(), 8 << 20);
    }

    #[test]
    fn digest_collisions_fall_back_to_the_full_key() {
        let lru = ShardedLru::<&str, u32>::new(8, 8);
        lru.insert(7, "a", 1, 1);
        lru.insert(7, "b", 2, 1);
        assert_eq!(lru.stats().entries, 2, "both colliding keys stay resident");
        assert_eq!(lru.get(7, |k| *k == "a"), Some(1));
        assert_eq!(lru.get(7, |k| *k == "b"), Some(2));
        assert_eq!(lru.get(7, |k| *k == "c"), None, "third key: miss");
    }

    #[test]
    fn errors_are_propagated_and_not_cached() {
        let cache = SdpCache::new(4);
        let g = gnp(6, 0.5, 1).unwrap();
        assert!(cache.get_or_solve(&g, 1, 0).is_err(), "rank 0 is invalid");
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get_or_solve(&g, 1, 2).is_ok());
    }
}
