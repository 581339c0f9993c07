//! Canonical graph fingerprints for cache keys.
//!
//! A [`GraphFingerprint`] is a 128-bit hash of a graph's *canonical*
//! edge list — the sorted, deduplicated `(u, v)` pairs with `u < v` that
//! [`Graph`] stores internally — plus the vertex count. Because the hash
//! is computed over the canonical form, it is independent of the order
//! (and orientation, and duplication) of the edges the graph was built
//! from: any two inputs that construct equal graphs fingerprint
//! identically.
//!
//! Fingerprints exist to key caches (the `SdpCache` in `snc-maxcut` and
//! the response cache in `snc-server`). They are **not** a substitute
//! for equality: 128 bits make accidental collisions vanishingly
//! unlikely, but every cache in the workspace still stores the full key
//! and confirms a fingerprint match with a full comparison before
//! serving a cached value, so a collision can cost a cache miss — never
//! a wrong answer.

use crate::csr::Graph;

/// Domain tag mixed into unweighted fingerprints.
const TAG_UNWEIGHTED: u64 = 0x534e_435f_4752_4150; // "SNC_GRAP"

/// A 128-bit order-independent hash of a canonical graph.
///
/// Two equal graphs always produce equal fingerprints; unequal graphs
/// produce equal fingerprints only with cryptographically-irrelevant but
/// cache-relevant probability (~2⁻¹²⁸ per pair), which is why cache
/// consumers pair the fingerprint with a full key comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphFingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl GraphFingerprint {
    /// A well-mixed 64-bit digest (for shard/bucket selection).
    pub fn fold(&self) -> u64 {
        mix(self.hi ^ self.lo.rotate_left(32))
    }
}

impl std::fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix with full avalanche.
///
/// Public so downstream cache layers can derive digests (e.g. shard
/// routing keys) with the same mixer instead of re-implementing the
/// constants.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independent sequential-mix lanes over a word stream.
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new(tag: u64) -> Self {
        // Distinct odd lane seeds; the tag separates hash domains.
        Self {
            a: mix(tag ^ 0x9e37_79b9_7f4a_7c15),
            b: mix(tag ^ 0xc2b2_ae3d_27d4_eb4f),
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        // Sequential (position-sensitive) mixing: the canonical edge
        // order is part of the hashed message, so `absorb` need not be
        // commutative.
        self.a = mix(self.a ^ word);
        self.b = mix(self.b.rotate_left(1) ^ word.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }

    fn finish(self, words: u64) -> GraphFingerprint {
        GraphFingerprint {
            hi: mix(self.a ^ words),
            lo: mix(self.b ^ words.rotate_left(32)),
        }
    }
}

/// Fingerprints an unweighted graph over its canonical sorted edge list.
pub fn fingerprint_graph(graph: &Graph) -> GraphFingerprint {
    let mut lanes = Lanes::new(TAG_UNWEIGHTED);
    lanes.absorb(graph.n() as u64);
    let mut words = 1u64;
    for (u, v) in graph.edges() {
        lanes.absorb((u64::from(u) << 32) | u64::from(v));
        words += 1;
    }
    lanes.finish(words)
}

impl Graph {
    /// The canonical 128-bit fingerprint of this graph (see
    /// [`fingerprint_graph`]).
    pub fn fingerprint(&self) -> GraphFingerprint {
        fingerprint_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Graph {
        Graph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn input_order_orientation_and_duplicates_are_canonicalized_away() {
        let a = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = graph(4, &[(3, 2), (2, 1), (1, 0), (0, 1), (1, 0)]);
        assert_eq!(a, b, "CSR construction canonicalizes");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_graphs_fingerprint_differently() {
        let base = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let edge_removed = graph(4, &[(0, 1), (1, 2)]);
        let edge_swapped = graph(4, &[(0, 1), (1, 2), (1, 3)]);
        let extra_vertex = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let empty = Graph::empty(4);
        let fps = [
            base.fingerprint(),
            edge_removed.fingerprint(),
            edge_swapped.fingerprint(),
            extra_vertex.fingerprint(),
            empty.fingerprint(),
            Graph::empty(0).fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "pair ({i}, {j}) collided");
            }
        }
    }

    #[test]
    fn fingerprint_is_deterministic_across_calls() {
        let g = crate::generators::erdos_renyi::gnp(50, 0.2, 7).unwrap();
        assert_eq!(g.fingerprint(), g.fingerprint());
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
    }

    #[test]
    fn fold_and_u128_views_agree_with_the_halves() {
        let fp = graph(3, &[(0, 1)]).fingerprint();
        assert_eq!(fp.fold(), fp.fold());
        assert_eq!(format!("{fp}").len(), 32);
    }
}
