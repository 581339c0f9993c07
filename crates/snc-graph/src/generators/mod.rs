//! Graph generators.
//!
//! [`erdos_renyi`] provides the Figure-3 workload. [`combinatorial`]
//! reconstructs the two DIMACS instances of Table I exactly. The remaining
//! families are structure-matched stand-ins for the Network Repository
//! graphs (see DESIGN.md, "Substitutions") and general-purpose test
//! workloads.
//!
//! Every generator is deterministic in its seed.

pub mod chung_lu;
pub mod combinatorial;
pub mod erdos_renyi;
pub mod geometric;
pub mod mesh;
pub mod preferential;
pub mod structured;
pub mod watts_strogatz;

pub use chung_lu::chung_lu;
pub use combinatorial::{hamming_graph, kneser_graph};
pub use erdos_renyi::{gnm, gnp};
pub use geometric::knn_graph;
pub use mesh::banded;
pub use preferential::preferential_attachment;
pub use structured::{complete, complete_bipartite, cycle, path, petersen};
pub use watts_strogatz::watts_strogatz;

use crate::csr::Graph;
use crate::error::GraphError;
use snc_devices::{Rng64, Xoshiro256pp};
use std::collections::HashSet;

/// Adjusts a graph to have exactly `m_target` edges by deterministically
/// removing random edges or adding random non-edges.
///
/// Used to pin synthetic stand-ins to the exact edge counts recorded for
/// the Network Repository graphs, so Table-I stand-ins share `(n, m)` with
/// the originals.
///
/// # Errors
///
/// Returns [`GraphError::InfeasibleEdgeCount`] if `m_target` exceeds
/// `n·(n−1)/2`.
pub fn adjust_to_edge_count(g: &Graph, m_target: usize, seed: u64) -> Result<Graph, GraphError> {
    let n = g.n();
    let max = n * n.saturating_sub(1) / 2;
    if m_target > max {
        return Err(GraphError::InfeasibleEdgeCount {
            requested: m_target,
            max,
        });
    }
    let mut rng = Xoshiro256pp::new(seed);
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    if edges.len() > m_target {
        rng.shuffle(&mut edges);
        edges.truncate(m_target);
    } else if edges.len() < m_target {
        let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
        while present.len() < m_target {
            let u = rng.next_index(n) as u32;
            let v = rng.next_index(n) as u32;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if present.insert(key) {
                edges.push(key);
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjust_down_and_up() {
        let g = complete(10); // m = 45
        let down = adjust_to_edge_count(&g, 20, 1).unwrap();
        assert_eq!(down.m(), 20);
        assert_eq!(down.n(), 10);
        let up = adjust_to_edge_count(&down, 30, 2).unwrap();
        assert_eq!(up.m(), 30);
        // Exact no-op when already at target.
        let same = adjust_to_edge_count(&g, 45, 3).unwrap();
        assert_eq!(same.m(), 45);
    }

    #[test]
    fn adjust_infeasible() {
        let g = structured::cycle(4);
        assert!(matches!(
            adjust_to_edge_count(&g, 100, 1),
            Err(GraphError::InfeasibleEdgeCount { .. })
        ));
    }

    #[test]
    fn adjust_is_deterministic() {
        let g = complete(12);
        let a = adjust_to_edge_count(&g, 30, 9).unwrap();
        let b = adjust_to_edge_count(&g, 30, 9).unwrap();
        assert_eq!(a, b);
    }
}
