//! Compressed sparse row (CSR) graphs and their spectral operators.
//!
//! Graphs are simple and undirected: no self-loops, no parallel edges. Each
//! undirected edge `{u, v}` is stored twice (once per endpoint) with sorted
//! neighbor lists, giving `O(log d)` adjacency queries and cache-friendly
//! row iteration — the access pattern of both cut evaluation and the
//! matrix-free spectral operators.

use crate::error::GraphError;
use snc_linalg::{DMatrix, LinOp};

/// A simple undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list.
    ///
    /// Self-loops are dropped; duplicate edges (in either orientation) are
    /// collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if u == v {
                continue; // drop self-loops
            }
            pairs.push((u.min(v), u.max(v)));
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut degree = vec![0usize; n];
        for &(u, v) in &pairs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for &d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v) in &pairs {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Neighbor lists are sorted because `pairs` was sorted and each
        // row is filled in increasing order of the opposite endpoint only
        // for the first endpoint; the second endpoint's rows need a sort.
        for i in 0..n {
            targets[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Ok(Self {
            n,
            offsets,
            targets,
        })
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of vertex `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted neighbor list of vertex `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Whether `{u, v}` is an edge (`O(log d)` binary search).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
    }

    /// All degrees.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n).map(|i| self.degree(i)).collect()
    }

    /// Maximum degree (0 for the empty graph).
    #[cfg(test)]
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|i| self.degree(i)).max().unwrap_or(0)
    }

    /// Dense normalized adjacency `D^{-1/2} A D^{-1/2}` (rows/cols of
    /// isolated vertices are zero).
    pub fn normalized_adjacency_dense(&self) -> DMatrix {
        let inv_sqrt: Vec<f64> = (0..self.n)
            .map(|i| {
                let d = self.degree(i);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        let mut a = DMatrix::zeros(self.n, self.n);
        for (u, v) in self.edges() {
            let (u, v) = (u as usize, v as usize);
            let w = inv_sqrt[u] * inv_sqrt[v];
            a[(u, v)] = w;
            a[(v, u)] = w;
        }
        a
    }

    /// Dense Trevisan matrix `I + D^{-1/2} A D^{-1/2}` (§II.B / §IV.B).
    pub fn trevisan_dense(&self) -> DMatrix {
        self.normalized_adjacency_dense().add_scaled_identity(1.0)
    }
}

/// Matrix-free normalized adjacency operator `x ↦ D^{-1/2} A D^{-1/2} x`.
///
/// Rows of isolated vertices act as zero. Spectrum lies in `[-1, 1]`.
#[derive(Clone, Debug)]
pub struct NormalizedAdjacency<'g> {
    graph: &'g Graph,
    inv_sqrt_deg: Vec<f64>,
}

impl<'g> NormalizedAdjacency<'g> {
    /// Builds the operator for a graph.
    pub fn new(graph: &'g Graph) -> Self {
        let inv_sqrt_deg = (0..graph.n())
            .map(|i| {
                let d = graph.degree(i);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        Self {
            graph,
            inv_sqrt_deg,
        }
    }
}

impl LinOp for NormalizedAdjacency<'_> {
    fn dim(&self) -> usize {
        self.graph.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &j in self.graph.neighbors(i) {
                acc += self.inv_sqrt_deg[j as usize] * x[j as usize];
            }
            *yi = acc * self.inv_sqrt_deg[i];
        }
    }
}

/// Matrix-free Trevisan operator `x ↦ (I + D^{-1/2} A D^{-1/2}) x`.
///
/// Positive semidefinite with spectrum in `[0, 2]`; its minimum eigenvector
/// is what the Trevisan simple spectral algorithm (and the LIF-TR circuit's
/// Oja plasticity) extracts.
#[derive(Clone, Debug)]
pub struct TrevisanOperator<'g> {
    inner: NormalizedAdjacency<'g>,
}

impl<'g> TrevisanOperator<'g> {
    /// Builds the operator for a graph.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            inner: NormalizedAdjacency::new(graph),
        }
    }
}

impl LinOp for TrevisanOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.m(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(2, 2));
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = triangle();
        let mut es: Vec<(u32, u32)> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(4);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn normalized_adjacency_regular_graph() {
        // On a d-regular graph the normalized adjacency is A/d.
        let g = triangle();
        let na = g.normalized_adjacency_dense();
        assert!((na[(0, 1)] - 0.5).abs() < 1e-15);
        // Row sums of D^{-1/2} A D^{-1/2} on a regular graph are 1.
        let ones = vec![1.0; 3];
        let y = na.matvec(&ones);
        for v in y {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_free_operators_match_dense() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let x: Vec<f64> = (0..5).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; 5];

        let na = NormalizedAdjacency::new(&g);
        na.apply(&x, &mut y);
        let dense = g.normalized_adjacency_dense().matvec(&x);
        for (a, b) in y.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-14);
        }

        let tr = TrevisanOperator::new(&g);
        tr.apply(&x, &mut y);
        let dense_tr = g.trevisan_dense().matvec(&x);
        for (a, b) in y.iter().zip(&dense_tr) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn isolated_vertex_rows_are_zero() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let na = NormalizedAdjacency::new(&g);
        let mut y = vec![9.0; 3];
        na.apply(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y[2], 0.0);
    }

    #[test]
    fn trevisan_spectrum_bounds() {
        // Bipartite K2: Trevisan matrix eigenvalues are {0, 2}.
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let t = g.trevisan_dense();
        let (vals, _) = snc_linalg::eigen::jacobi::symmetric_eigen(&t).unwrap();
        assert!((vals[0] - 0.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
    }
}
