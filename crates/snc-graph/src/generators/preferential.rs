//! Barabási–Albert preferential attachment.
//!
//! General-purpose scale-free generator used in tests and ablations: each
//! arriving vertex attaches to `k` existing vertices chosen proportionally
//! to their current degree (implemented with the repeated-endpoint trick:
//! sampling a uniform position in the edge-endpoint list is
//! degree-proportional sampling).

use crate::csr::Graph;
use crate::error::GraphError;
use snc_devices::{Rng64, Xoshiro256pp};

/// Samples a Barabási–Albert graph: starts from a clique on `k + 1`
/// vertices, then each new vertex attaches to `k` distinct existing
/// vertices with degree-proportional probability.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] unless `1 ≤ k < n`.
pub fn preferential_attachment(n: usize, k: usize, seed: u64) -> Result<Graph, GraphError> {
    if k == 0 || k >= n {
        return Err(GraphError::InvalidParameter {
            name: "k",
            constraint: format!("need 1 <= k < n = {n}, got {k}"),
        });
    }
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Flat list of edge endpoints: sampling uniformly from it is
    // degree-proportional vertex sampling.
    let mut endpoints: Vec<u32> = Vec::new();

    // Seed clique on k+1 vertices.
    for u in 0..=k as u32 {
        for v in u + 1..=k as u32 {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut chosen = Vec::with_capacity(k);
    for u in (k + 1)..n {
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < k && guard < 10_000 {
            guard += 1;
            let v = endpoints[rng.next_index(endpoints.len())];
            if !chosen.contains(&v) {
                chosen.push(v);
            }
        }
        for &v in &chosen {
            edges.push((v, u as u32));
            endpoints.push(v);
            endpoints.push(u as u32);
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_formula() {
        // m = C(k+1, 2) + (n − k − 1)·k.
        let g = preferential_attachment(100, 3, 1).unwrap();
        assert_eq!(g.m(), 6 + 96 * 3);
        assert_eq!(g.n(), 100);
    }

    #[test]
    fn hubs_emerge() {
        let g = preferential_attachment(500, 2, 2).unwrap();
        let mut degs = g.degrees();
        degs.sort_unstable();
        let max = *degs.last().unwrap();
        let median = degs[degs.len() / 2];
        assert!(
            max as f64 > 5.0 * median as f64,
            "max={max} median={median}"
        );
    }

    #[test]
    fn min_degree_is_k() {
        let g = preferential_attachment(200, 4, 3).unwrap();
        assert!(g.degrees().into_iter().min().unwrap() >= 4);
    }

    #[test]
    fn validation_and_determinism() {
        assert!(preferential_attachment(5, 0, 1).is_err());
        assert!(preferential_attachment(5, 5, 1).is_err());
        let a = preferential_attachment(50, 2, 9).unwrap();
        let b = preferential_attachment(50, 2, 9).unwrap();
        assert_eq!(a, b);
    }
}
