//! Full-response caching for the serving layer.
//!
//! PR 4 pinned the wire contract: a solve response body is a pure,
//! deterministic function of the parsed request — identical requests
//! produce byte-identical bodies on any worker at any concurrency. That
//! makes whole-response caching trivially sound: a stored body is
//! *indistinguishable by construction* from a recomputed one, so the
//! cache can change `/solve` latency but never its answers.
//!
//! [`ResponseCache`] is a [`ShardedLru`] keyed by the **full canonical
//! request** ([`ResponseKey`]): circuit family, budget, replica width,
//! seed, the graph label (it is echoed in the body), and the instance.
//! A request that names a Figure-4 dataset or a seeded gnp carries its
//! instance in the label alone (`dataset:…`, `gnp(n=…,p=…,seed=…)` fix
//! the graph exactly), so its key is built from the parsed spec and a
//! warm hit never generates or loads the graph. Other graphs key on the
//! built graph, other workloads on a canonical string. The key's digest
//! (its [`ResponseKey::payload_fold`] mixed with the scalars) routes it
//! to a shard and pre-filters lookups; a hit additionally requires
//! full-key equality — a digest collision degrades to a miss, never to
//! a wrong body.
//!
//! The bound is in **bytes** (body + an estimate of the key's heap
//! footprint, [`ResponseKey::cost`]), because response size varies with
//! graph order and trace length. Locks are held only for lookup/insert,
//! never across a solve. A budget of `0` disables the cache: lookups
//! miss, inserts are dropped, nothing panics.

use snc_graph::{Graph, GraphFingerprint};
use snc_maxcut::{CircuitFamily, ShardedLru};
use std::sync::Arc;

/// Bytes per shard below which another shard stops paying; small test
/// budgets collapse to a single shard so eviction order is exact.
const MIN_BYTES_PER_SHARD: usize = 64 * 1024;
/// Fixed per-entry bookkeeping charge (list node, counters, `Arc`).
const ENTRY_OVERHEAD: usize = 128;

/// The instance a cached response was computed for: a graph named by
/// the key's label, a plain graph (pre-filtered by its
/// [`GraphFingerprint`]), or a canonical string rendering of a
/// non-`Graph` workload — weighted graphs, MAX2SAT instances, and
/// MAXDICUT digraphs have no CSR fingerprint, so their full instance is
/// folded into the key as a deterministic string (floats rendered via
/// `f64::to_bits`, so byte-equality ⇔ bit-equality).
#[derive(Clone, Debug, PartialEq)]
enum Payload {
    /// A graph the label fixes exactly (a dataset or a seeded gnp).
    Named,
    /// An unweighted MAXCUT graph.
    Graph {
        graph: Graph,
        fingerprint: GraphFingerprint,
    },
    /// A canonical rendering of any other workload instance.
    Canonical(String),
}

/// Order-sensitive fold of a byte string into a 64-bit digest (same
/// `mix` core as the graph fingerprint).
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut d = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d = snc_graph::fingerprint::mix(d ^ u64::from_le_bytes(word));
    }
    snc_graph::fingerprint::mix(d ^ bytes.len() as u64)
}

/// The full canonical request — everything the response body depends
/// on. Server-wide constants (SDP rank, LIF parameters) are fixed per
/// process and deliberately excluded; the cache never outlives them.
/// Per-request solver knobs beyond the common five (cooling schedules,
/// Hopfield step counts) travel in `extras`, a canonical string that
/// participates in equality, digest, and cost.
#[derive(Clone, Debug, PartialEq)]
pub struct ResponseKey {
    family: CircuitFamily,
    budget: u64,
    replicas: usize,
    seed: u64,
    graph_label: String,
    payload: Payload,
    extras: String,
}

impl ResponseKey {
    /// Builds the canonical key for a parsed unweighted solve job.
    pub fn new(
        family: CircuitFamily,
        budget: u64,
        replicas: usize,
        seed: u64,
        graph_label: String,
        graph: Graph,
    ) -> Self {
        let fingerprint = graph.fingerprint();
        Self {
            family,
            budget,
            replicas,
            seed,
            graph_label,
            payload: Payload::Graph { graph, fingerprint },
            extras: String::new(),
        }
    }

    /// Builds the key of a request whose graph label fixes the graph
    /// exactly (a dataset or a seeded gnp): the label is the instance,
    /// so no graph is needed. A named key never equals a graph or
    /// canonical key, even for the same graph.
    pub(crate) fn new_named(
        family: CircuitFamily,
        budget: u64,
        replicas: usize,
        seed: u64,
        graph_label: String,
    ) -> Self {
        Self {
            family,
            budget,
            replicas,
            seed,
            graph_label,
            payload: Payload::Named,
            extras: String::new(),
        }
    }

    /// Builds a key whose instance is a canonical string (weighted
    /// graphs, MAX2SAT, MAXDICUT). A canonical key can never collide
    /// with a graph key — the payload variants are distinct — and two
    /// canonical keys hit only on byte-equal strings.
    pub fn new_canonical(
        family: CircuitFamily,
        budget: u64,
        replicas: usize,
        seed: u64,
        graph_label: String,
        canonical: String,
    ) -> Self {
        Self {
            family,
            budget,
            replicas,
            seed,
            graph_label,
            payload: Payload::Canonical(canonical),
            extras: String::new(),
        }
    }

    /// Attaches the canonical rendering of family-specific knobs (the
    /// wire layer's `spec_extras`). Keys differing only in extras never
    /// share an entry.
    #[must_use]
    pub fn with_extras(mut self, extras: String) -> Self {
        self.extras = extras;
        self
    }

    /// The 64-bit fold of the request's *instance* payload: the label
    /// hash for a named graph, the graph's [`GraphFingerprint`] fold, or
    /// the canonical-string hash for non-graph workloads.
    ///
    /// This is the scale-out routing key: it depends only on the
    /// instance (never on seed, budget, replica width, or family, and
    /// on the label only where the label names the graph), so an edge
    /// process sharding by it sends every request about the same graph,
    /// spelled the same way, to the same backend — maximizing that
    /// backend's [`snc_maxcut::SdpCache`] and [`ResponseCache`]
    /// locality.
    pub fn payload_fold(&self) -> u64 {
        match &self.payload {
            Payload::Named => hash_bytes(self.graph_label.as_bytes()),
            Payload::Graph { fingerprint, .. } => fingerprint.fold(),
            Payload::Canonical(s) => hash_bytes(s.as_bytes()),
        }
    }

    /// A 64-bit digest for shard routing and cheap pre-filtering (always
    /// followed by a full equality check on hit).
    fn digest(&self) -> u64 {
        let mut d = self.payload_fold();
        for word in [
            self.budget,
            self.replicas as u64,
            self.seed,
            self.family as u64,
            self.graph_label.len() as u64,
        ] {
            d = snc_graph::fingerprint::mix(d ^ word);
        }
        if !self.extras.is_empty() {
            d = snc_graph::fingerprint::mix(d ^ hash_bytes(self.extras.as_bytes()));
        }
        d
    }

    /// The bytes an entry with this key and a `body_len`-byte body is
    /// charged against the cache budget: body + instance footprint (none
    /// for a named graph, else a CSR estimate or the canonical-string
    /// length) + label + extras + fixed overhead. Exposed so tests and benches can size budgets that
    /// provably force (or provably avoid) eviction.
    pub fn cost(&self, body_len: usize) -> usize {
        let instance_bytes = match &self.payload {
            Payload::Named => 0,
            Payload::Graph { graph, .. } => 8 * (graph.n() + 1) + 4 * 2 * graph.m(),
            Payload::Canonical(s) => s.len(),
        };
        body_len + instance_bytes + self.graph_label.len() + self.extras.len() + ENTRY_OVERHEAD
    }
}

/// Counters and gauges describing response-cache traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a solve.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
    /// Total byte budget across shards.
    pub capacity_bytes: u64,
}

/// A bounded, sharded, thread-safe LRU of byte-exact response bodies
/// keyed by the full canonical request. See the module docs.
#[derive(Debug)]
pub struct ResponseCache {
    lru: ShardedLru<ResponseKey, Arc<String>>,
}

impl ResponseCache {
    /// Creates a cache with a total budget of `bytes`. `bytes == 0`
    /// disables the cache: every lookup misses, inserts are dropped, and
    /// nothing panics.
    pub fn new(bytes: usize) -> Self {
        Self {
            lru: ShardedLru::new(bytes, MIN_BYTES_PER_SHARD),
        }
    }

    /// A traffic snapshot (each counter read atomically; the snapshot is
    /// exact once traffic quiesces).
    pub fn stats(&self) -> ResponseCacheStats {
        let s = self.lru.stats();
        ResponseCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries,
            bytes: s.used,
            capacity_bytes: self.lru.capacity() as u64,
        }
    }

    /// Looks up the stored body for a request. Every call counts exactly
    /// one hit or one miss, so `hits + misses` equals the number of
    /// requests that consulted the cache.
    pub fn get(&self, key: &ResponseKey) -> Option<Arc<String>> {
        self.lru.get(key.digest(), |k| k == key)
    }

    /// Stores a computed body. Entries too large for a shard's budget
    /// are dropped (the response is still served — it is just never
    /// cached); re-inserting a resident key is a no-op (bodies for equal
    /// keys are byte-identical by the wire contract).
    pub fn insert(&self, key: ResponseKey, body: String) {
        let cost = key.cost(body.len());
        self.lru.insert(key.digest(), key, Arc::new(body), cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_graph::generators::erdos_renyi::gnp;

    fn key(graph_seed: u64, solve_seed: u64) -> ResponseKey {
        ResponseKey::new(
            CircuitFamily::LifGw,
            64,
            4,
            solve_seed,
            format!("gnp(seed={graph_seed})"),
            gnp(12, 0.5, graph_seed).unwrap(),
        )
    }

    #[test]
    fn roundtrip_and_counters() {
        let cache = ResponseCache::new(1 << 20);
        let k = key(1, 42);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), "body-1".to_string());
        assert_eq!(cache.get(&k).as_deref().map(String::as_str), Some("body-1"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0 && stats.bytes <= stats.capacity_bytes);
    }

    #[test]
    fn every_key_component_distinguishes() {
        let cache = ResponseCache::new(1 << 20);
        let base = key(1, 42);
        cache.insert(base.clone(), "base".to_string());
        let mut family = base.clone();
        family.family = CircuitFamily::LifTrevisan;
        let mut budget = base.clone();
        budget.budget = 65;
        let mut replicas = base.clone();
        replicas.replicas = 5;
        let mut seed = base.clone();
        seed.seed = 43;
        let mut label = base.clone();
        label.graph_label = "other".to_string();
        let extras = base.clone().with_extras("steps=9".to_string());
        let graph = key(2, 42);
        for (name, k) in [
            ("family", &family),
            ("budget", &budget),
            ("replicas", &replicas),
            ("seed", &seed),
            ("label", &label),
            ("extras", &extras),
            ("graph", &graph),
        ] {
            assert!(cache.get(k).is_none(), "{name} must be part of the key");
        }
        assert!(cache.get(&base).is_some());
    }

    #[test]
    fn digest_collisions_fall_back_to_full_comparison() {
        // Same graph, different label: one payload fold, never a cross-hit.
        let cache = ResponseCache::new(1 << 20);
        let g = gnp(10, 0.5, 9).unwrap();
        let a = ResponseKey::new(CircuitFamily::LifGw, 8, 1, 0, "edges".into(), g.clone());
        let b = ResponseKey::new(CircuitFamily::LifGw, 8, 1, 0, "edgelist".into(), g);
        assert_eq!(a.payload, b.payload);
        cache.insert(a.clone(), "a-body".to_string());
        assert!(cache.get(&b).is_none(), "same graph, different label: miss");
        assert_eq!(cache.get(&a).as_deref().map(String::as_str), Some("a-body"));
    }

    #[test]
    fn canonical_payloads_roundtrip_and_distinguish() {
        let cache = ResponseCache::new(1 << 20);
        let a = ResponseKey::new_canonical(
            CircuitFamily::LifGw,
            32,
            1,
            7,
            "max2sat".to_string(),
            "max2sat:vars=3;+1-2:3ff0000000000000".to_string(),
        );
        cache.insert(a.clone(), "sat-body".to_string());
        assert_eq!(
            cache.get(&a).as_deref().map(String::as_str),
            Some("sat-body")
        );
        // A single differing byte in the canonical string must miss.
        let b = ResponseKey::new_canonical(
            CircuitFamily::LifGw,
            32,
            1,
            7,
            "max2sat".to_string(),
            "max2sat:vars=3;+1-3:3ff0000000000000".to_string(),
        );
        assert!(cache.get(&b).is_none());
        assert!(a.cost(16) >= 16 + ENTRY_OVERHEAD);
    }

    #[test]
    fn graph_and_canonical_payloads_never_cross_hit() {
        let cache = ResponseCache::new(1 << 20);
        let graph_key = key(1, 42);
        cache.insert(graph_key.clone(), "graph-body".to_string());
        // Same scalar components, canonical payload: distinct variant,
        // distinct entry — even if the digests happened to collide the
        // full-equality check keeps them apart.
        let canonical = ResponseKey::new_canonical(
            CircuitFamily::LifGw,
            64,
            4,
            42,
            "gnp(seed=1)".to_string(),
            "wgraph:n=12;".to_string(),
        );
        assert!(cache.get(&canonical).is_none());
        cache.insert(canonical.clone(), "canon-body".to_string());
        assert_eq!(
            cache.get(&graph_key).as_deref().map(String::as_str),
            Some("graph-body")
        );
        assert_eq!(
            cache.get(&canonical).as_deref().map(String::as_str),
            Some("canon-body")
        );
    }

    #[test]
    fn extras_distinguish_otherwise_equal_requests() {
        let cache = ResponseCache::new(1 << 20);
        let plain = key(1, 42);
        let geometric = plain
            .clone()
            .with_extras("schedule=geometric:3ff0000000000000:3fa999999999999a".to_string());
        let linear = plain
            .clone()
            .with_extras("schedule=linear:3ff0000000000000:3fa999999999999a".to_string());
        cache.insert(plain.clone(), "plain".to_string());
        cache.insert(geometric.clone(), "geo".to_string());
        cache.insert(linear.clone(), "lin".to_string());
        assert_eq!(
            cache.get(&plain).as_deref().map(String::as_str),
            Some("plain")
        );
        assert_eq!(
            cache.get(&geometric).as_deref().map(String::as_str),
            Some("geo")
        );
        assert_eq!(
            cache.get(&linear).as_deref().map(String::as_str),
            Some("lin")
        );
        // Extras are charged against the byte budget.
        assert!(geometric.cost(0) > plain.cost(0));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let k1 = key(1, 0);
        let k2 = key(2, 0);
        let k3 = key(3, 0);
        let body = "x".repeat(256);
        // Budget fits two entries but not three (single shard at this
        // size), so the third insert evicts the least recently used.
        let two = k1.cost(body.len()) + k2.cost(body.len());
        let cache = ResponseCache::new(two + 64);
        cache.insert(k1.clone(), body.clone());
        cache.insert(k2.clone(), body.clone());
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(&k1).is_some(), "touch k1: k2 becomes LRU");
        cache.insert(k3.clone(), body.clone());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(
            stats.bytes <= stats.capacity_bytes,
            "budget is a hard bound"
        );
        assert!(cache.get(&k2).is_none(), "k2 was the LRU victim");
        assert!(cache.get(&k1).is_some());
        assert!(cache.get(&k3).is_some());
    }

    #[test]
    fn zero_budget_disables_without_panicking() {
        let cache = ResponseCache::new(0);
        assert!(!cache.lru.is_enabled());
        let k = key(1, 1);
        cache.insert(k.clone(), "body".to_string());
        assert!(cache.get(&k).is_none());
        assert!(cache.get(&k).is_none(), "still nothing after the insert");
        let stats = cache.stats();
        assert_eq!(
            (
                stats.hits,
                stats.misses,
                stats.entries,
                stats.bytes,
                stats.capacity_bytes
            ),
            (0, 2, 0, 0, 0)
        );
    }

    #[test]
    fn tiny_budgets_reject_oversized_entries_instead_of_panicking() {
        // Capacity 1 byte: nothing fits (every entry costs at least the
        // overhead), so inserts are dropped and lookups miss — the "0
        // must disable, 1 must not panic" corner of the satellite task.
        let cache = ResponseCache::new(1);
        assert!(cache.lru.is_enabled());
        let k = key(1, 1);
        cache.insert(k.clone(), "body".to_string());
        assert!(cache.get(&k).is_none());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 0));
    }

    #[test]
    fn reinserting_a_resident_key_is_a_noop() {
        let cache = ResponseCache::new(1 << 20);
        let k = key(4, 4);
        cache.insert(k.clone(), "first".to_string());
        let bytes = cache.stats().bytes;
        cache.insert(k.clone(), "first".to_string());
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().bytes, bytes, "no double charge");
    }

    #[test]
    fn payload_fold_depends_only_on_the_instance() {
        // The routing key ignores everything but the instance: same
        // graph under different seed/budget/replicas/label/extras folds
        // identically (so a fingerprint router keeps SdpCache locality),
        // while a different graph folds differently.
        let base = key(1, 42);
        let mut other = key(1, 43);
        other.budget = 99;
        other.replicas = 16;
        other.graph_label = "renamed".to_string();
        let other = other.with_extras("steps=9".to_string());
        assert_eq!(base.payload_fold(), other.payload_fold());
        assert_ne!(base.payload_fold(), key(2, 42).payload_fold());
        // Canonical payloads fold off the string, not the scalars.
        let canon = |s: &str| {
            ResponseKey::new_canonical(
                CircuitFamily::LifGw,
                1,
                1,
                0,
                "w".to_string(),
                s.to_string(),
            )
        };
        assert_eq!(
            canon("wgraph:n=3;").payload_fold(),
            canon("wgraph:n=3;").payload_fold()
        );
        assert_ne!(
            canon("wgraph:n=3;").payload_fold(),
            canon("wgraph:n=4;").payload_fold()
        );
    }
}
