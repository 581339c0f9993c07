//! Graph statistics used to validate workloads and stand-ins.

use crate::csr::Graph;

/// Summary of a degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m/n`).
    pub mean: f64,
    /// Median degree.
    pub median: usize,
}

/// Computes degree statistics (zeros for the empty graph).
pub fn degree_stats(g: &Graph) -> DegreeStats {
    if g.n() == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
        };
    }
    let mut degs = g.degrees();
    degs.sort_unstable();
    DegreeStats {
        min: degs[0],
        max: *degs.last().unwrap(),
        mean: 2.0 * g.m() as f64 / g.n() as f64,
        median: degs[degs.len() / 2],
    }
}

/// Edge density `m / (n(n−1)/2)` (0 for graphs with fewer than 2 vertices).
pub fn density(g: &Graph) -> f64 {
    let n = g.n();
    if n < 2 {
        return 0.0;
    }
    g.m() as f64 / (n * (n - 1) / 2) as f64
}

/// Global clustering coefficient: `3·triangles / open wedges`.
///
/// Exact triangle counting via neighbor-list intersection; `O(Σ d²)`.
pub fn global_clustering(g: &Graph) -> f64 {
    let mut triangles = 0u64; // each counted 3 times below, once per wedge apex
    let mut wedges = 0u64;
    for v in 0..g.n() {
        let d = g.degree(v);
        wedges += (d * d.saturating_sub(1) / 2) as u64;
        let nb = g.neighbors(v);
        for (ai, &a) in nb.iter().enumerate() {
            for &b in &nb[ai + 1..] {
                if g.has_edge(a as usize, b as usize) {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

/// Connected components as a label vector (component ids are 0-based, in
/// order of discovery by BFS from the lowest-numbered unvisited vertex).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.n();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = Vec::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &w in g.neighbors(v) {
                let w = w as usize;
                if label[w] == usize::MAX {
                    label[w] = next;
                    queue.push(w);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::{complete, cycle, path, star};

    #[test]
    fn degree_stats_of_star() {
        let s = degree_stats(&star(5));
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 1);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn density_values() {
        assert!((density(&complete(5)) - 1.0).abs() < 1e-12);
        assert_eq!(density(&Graph::empty(1)), 0.0);
        assert!((density(&cycle(6)) - 6.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_extremes() {
        assert!((global_clustering(&complete(5)) - 1.0).abs() < 1e-12);
        assert_eq!(global_clustering(&star(10)), 0.0);
        assert_eq!(global_clustering(&Graph::empty(3)), 0.0);
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_eq!(component_count(&g), 3);
        assert_eq!(component_count(&path(5)), 1);
        assert_eq!(component_count(&Graph::empty(0)), 0);
    }
}
