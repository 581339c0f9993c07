//! Deterministic caching for the offline SDP stage.
//!
//! The Burer–Monteiro factor the LIF-GW and LIF-annealed circuits
//! program into their synapses is a pure function of `(graph, sdp seed,
//! rank)` — it costs ~13 of the ~20 ms a road-chesapeake solve spends
//! end to end, and it is bit-for-bit reproducible given those three
//! inputs. [`SdpCache`] memoizes exactly that function, so repeated
//! solves of the same graph (LIF-GW then LIF-annealed, anneal restarts,
//! repeated service requests, figure sweeps) pay the SDP once and re-run
//! only the stochastic circuit stage the paper actually studies. Its
//! hit/miss counters are therefore a census of every unweighted SDP the
//! circuit families need; weighted graphs and the MAX2SAT/MAXDICUT
//! extensions solve their SDPs inline.
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
//! The cache is sharded: the graph fingerprint's folded digest picks a
//! shard, each shard is an independent LRU list behind its own
//! `parking_lot` mutex, and **no lock is ever held across an SDP
//! solve** — on a miss the shard lock is released, the factor is
//! computed, and the lock is retaken to insert. Two threads missing the
//! same key concurrently both compute (identical) factors; the second
//! insert is dropped. Entries store the full key — including the graph
//! itself — and a hit requires full-key equality, so a fingerprint
//! collision degrades to a miss, never to a wrong factor.

use crate::gw::{solve_gw, GwConfig, GwSolution};
use parking_lot::Mutex;
use snc_graph::{Graph, GraphFingerprint};
use snc_linalg::{LinalgError, SdpConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most shards a cache will spread its entries over.
const MAX_SHARDS: usize = 8;
/// Entries per shard below which adding another shard stops paying:
/// small caches use fewer (down to one) shards so that the configured
/// capacity stays exact and tests can reason about eviction order.
const MIN_ENTRIES_PER_SHARD: usize = 8;

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

/// The full cache key: fingerprint for routing, plus every input the
/// SDP depends on — including the graph itself for collision checking.
struct Entry {
    fingerprint: GraphFingerprint,
    seed: u64,
    rank: usize,
    graph: Graph,
    solution: Arc<GwSolution>,
}

impl Entry {
    fn matches(&self, fingerprint: GraphFingerprint, seed: u64, rank: usize, graph: &Graph) -> bool {
        // Fingerprint first (cheap reject), then the full key: a
        // fingerprint collision must read as a miss, not a wrong factor.
        self.fingerprint == fingerprint && self.seed == seed && self.rank == rank && self.graph == *graph
    }
}

/// One shard: an LRU list (front = least recently used).
#[derive(Default)]
struct Shard {
    entries: VecDeque<Entry>,
}

/// A bounded, sharded, thread-safe memo of SDP factor/bound pairs keyed
/// by `(graph fingerprint, sdp seed, rank)` with full-key collision
/// checking. See the module docs for the determinism contract.
pub struct SdpCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for SdpCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdpCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SdpCache {
    /// Creates a cache retaining at most `capacity` factor entries in
    /// total. `capacity == 0` means *disabled*: every lookup misses,
    /// inserts are dropped, and nothing panics.
    pub fn new(capacity: usize) -> Self {
        let shards = shard_count(capacity, MIN_ENTRIES_PER_SHARD);
        // Floor division keeps the global bound exact: the shards
        // together never retain more than `capacity` entries.
        let per_shard_capacity = capacity.checked_div(shards).unwrap_or(0);
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether the cache can retain anything at all.
    pub fn is_enabled(&self) -> bool {
        self.per_shard_capacity > 0
    }

    /// Total entries the cache may retain.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// A traffic snapshot. Counters are monotonic; `entries` is the
    /// current resident count (each counter is read atomically, the
    /// snapshot as a whole is not — consistent once traffic quiesces).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().entries.len() as u64)
                .sum(),
        }
    }

    fn shard_for(&self, fingerprint: GraphFingerprint) -> &Mutex<Shard> {
        &self.shards[(fingerprint.fold() % self.shards.len() as u64) as usize]
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
        let fingerprint = graph.fingerprint();
        if self.is_enabled() {
            let mut shard = self.shard_for(fingerprint).lock();
            if let Some(idx) = shard
                .entries
                .iter()
                .position(|e| e.matches(fingerprint, seed, rank, graph))
            {
                // LRU touch: move the hit to the back (most recent).
                let entry = shard.entries.remove(idx).expect("index from position");
                let solution = Arc::clone(&entry.solution);
                shard.entries.push_back(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((solution, false));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Lock released: compute outside any shard lock.
        let cfg = GwConfig {
            sdp: SdpConfig {
                rank,
                seed,
                ..SdpConfig::default()
            },
        };
        let solution = Arc::new(solve_gw(graph, &cfg)?);

        if self.is_enabled() {
            let mut shard = self.shard_for(fingerprint).lock();
            // Another thread may have inserted while we solved; keep the
            // resident entry (the values are identical by determinism).
            let already = shard
                .entries
                .iter()
                .any(|e| e.matches(fingerprint, seed, rank, graph));
            if !already {
                while shard.entries.len() >= self.per_shard_capacity {
                    shard.entries.pop_front();
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                shard.entries.push_back(Entry {
                    fingerprint,
                    seed,
                    rank,
                    graph: graph.clone(),
                    solution: Arc::clone(&solution),
                });
            }
        }
        Ok((solution, true))
    }
}

/// Shard count for a capacity: enough shards to cut contention, never so
/// many that a shard's share of the capacity drops below
/// `min_per_shard` (and zero for a disabled cache).
fn shard_count(capacity: usize, min_per_shard: usize) -> usize {
    if capacity == 0 {
        0
    } else {
        (capacity / min_per_shard).clamp(1, MAX_SHARDS)
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
        assert!(!cache.is_enabled());
        assert_eq!(cache.capacity(), 0);
        let g = gnp(8, 0.5, 4).unwrap();
        let a = cache.get_or_solve(&g, 1, 2).unwrap();
        let b = cache.get_or_solve(&g, 1, 2).unwrap();
        assert_eq!(a.factors, b.factors, "still deterministic, just uncached");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.evictions), (0, 2, 0, 0));
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
    fn errors_are_propagated_and_not_cached() {
        let cache = SdpCache::new(4);
        let g = gnp(6, 0.5, 1).unwrap();
        assert!(cache.get_or_solve(&g, 1, 0).is_err(), "rank 0 is invalid");
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get_or_solve(&g, 1, 2).is_ok());
    }
}
