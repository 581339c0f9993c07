//! The consistent-hash ring: maps a 64-bit routing key (a canonical
//! request's [`snc_server::ResponseKey::payload_fold`]) to a backend.
//! For a dataset or gnp request the key is the spec key, the hash of
//! the label that names the graph; for other graphs it is the
//! fingerprint fold. So one graph sent in two spellings (a gnp and its
//! edge list) may map to two backends — an accepted trade-off, as the
//! two never share a response entry.
//!
//! Classic Karger-style consistent hashing with virtual nodes. Each
//! backend `b` with weight `w` owns `vnodes · w` points on a `u64`
//! circle; a key routes to the backend owning the first point at or
//! after the key's own position (wrapping). Two properties carry the
//! scale-out design:
//!
//! * **Stability** — points are derived only from `(backend index,
//!   vnode index)`, never from addresses or membership, so the mapping
//!   is identical across router restarts and independent of which
//!   backends happen to be alive. A backend's `SdpCache`/`ResponseCache`
//!   therefore sees the same stable slice of the fingerprint keyspace
//!   for as long as the topology is configured.
//! * **Consistency** — removing (or marking down) one backend moves
//!   *only* the keys that backend owned: every other key's first live
//!   point is unchanged. The router exploits this for failover — a
//!   key's candidate sequence is "walk the ring, take each distinct
//!   backend in first-encounter order" — and the proptest suite pins
//!   the ≈1/N remap bound.
//!
//! Liveness is intentionally *not* stored in the ring: callers pass a
//! predicate so routing reflects the health table's view at that
//! instant without rebuilding anything.

use snc_graph::fingerprint::mix;

/// Default virtual nodes per unit of backend weight. 64 points per
/// backend keeps the worst-case load imbalance within ~2× at small N
/// (the proptests pin a 3× bound at 32 vnodes) while the ring stays a
/// few KiB.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over backends `0..n` with per-backend integer
/// weights.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend)` sorted by point (ties broken by backend, which
    /// keeps construction deterministic even under point collisions).
    points: Vec<(u64, u32)>,
    backends: usize,
}

/// The point for virtual node `v` of backend `b`: a double `mix` of the
/// two indices in disjoint bit ranges. Depends on indices only — see
/// the module docs on stability.
fn vnode_point(backend: usize, vnode: usize) -> u64 {
    mix(mix((backend as u64 + 1) << 32) ^ (vnode as u64 + 1))
}

impl HashRing {
    /// Builds a ring over `weights.len()` backends; backend `b` gets
    /// `vnodes · weights[b]` points. A zero weight gives a backend no
    /// points (it can never be routed to — useful for drain-style
    /// removal that keeps every other backend's slice identical).
    ///
    /// # Panics
    ///
    /// Panics if no backend has positive weight or `vnodes` is 0 —
    /// a ring that cannot route anything is a configuration error.
    pub fn new(weights: &[u32], vnodes: usize) -> Self {
        assert!(vnodes > 0, "vnodes must be positive");
        assert!(
            weights.iter().any(|&w| w > 0),
            "at least one backend needs positive weight"
        );
        let mut points = Vec::new();
        for (backend, &weight) in weights.iter().enumerate() {
            for vnode in 0..vnodes * weight as usize {
                points.push((vnode_point(backend, vnode), backend as u32));
            }
        }
        points.sort_unstable();
        Self {
            points,
            backends: weights.len(),
        }
    }

    /// Total points on the ring.
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// The distinct backends that can serve `key`, in failover order:
    /// the ring is walked clockwise from the key's position and each
    /// backend is yielded the first time one of its points is passed.
    /// The first element is the key's home backend; the rest are the
    /// consistent-hashing failover sequence (what the keys of a dead
    /// backend remap onto).
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.backends);
        let mut seen = vec![false; self.backends];
        let start = self.points.partition_point(|&(point, _)| point < mix(key));
        for i in 0..self.points.len() {
            let (_, backend) = self.points[(start + i) % self.points.len()];
            if !seen[backend as usize] {
                seen[backend as usize] = true;
                order.push(backend as usize);
            }
        }
        order
    }

    /// The first backend in `key`'s candidate order satisfying `alive`
    /// (`None` when every live backend is excluded).
    pub fn route(&self, key: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        let mut seen = vec![false; self.backends];
        let start = self.points.partition_point(|&(point, _)| point < mix(key));
        for i in 0..self.points.len() {
            let (_, backend) = self.points[(start + i) % self.points.len()];
            let backend = backend as usize;
            if !seen[backend] {
                if alive(backend) {
                    return Some(backend);
                }
                seen[backend] = true;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_in_range() {
        let ring = HashRing::new(&[1, 1, 1], 32);
        assert_eq!(ring.backends, 3);
        assert_eq!(ring.points(), 96);
        for key in 0..512u64 {
            let a = ring.route(key, |_| true).unwrap();
            let b = ring.route(key, |_| true).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
            assert_eq!(ring.candidates(key)[0], a);
        }
    }

    #[test]
    fn candidates_cover_all_backends_once_each() {
        let ring = HashRing::new(&[1, 2, 1, 1], 16);
        for key in 0..64u64 {
            let mut order = ring.candidates(key);
            assert_eq!(order.len(), 4);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn dead_backends_are_skipped_consistently() {
        let ring = HashRing::new(&[1, 1, 1], 32);
        for key in 0..512u64 {
            let home = ring.route(key, |_| true).unwrap();
            let rerouted = ring.route(key, |b| b != home).unwrap();
            assert_ne!(rerouted, home);
            // Keys not on the dead backend must not move at all.
            let dead = (home + 1) % 3;
            assert_eq!(ring.route(key, |b| b != dead), Some(home));
            // The reroute target is the next candidate in failover
            // order.
            assert_eq!(ring.candidates(key)[1], rerouted);
        }
    }

    #[test]
    fn all_dead_is_none() {
        let ring = HashRing::new(&[1, 1], 8);
        assert_eq!(ring.route(7, |_| false), None);
    }

    #[test]
    fn zero_weight_backends_get_no_keys() {
        let ring = HashRing::new(&[1, 0, 1], 32);
        for key in 0..512u64 {
            assert_ne!(ring.route(key, |_| true), Some(1));
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_weights_panic() {
        let _ = HashRing::new(&[0, 0], 8);
    }
}
