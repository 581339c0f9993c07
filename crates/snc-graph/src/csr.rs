//! Compressed sparse row (CSR) graphs and their spectral operators.
//!
//! Graphs are simple and undirected: no self-loops, no parallel edges. Each
//! undirected edge `{u, v}` is stored twice (once per endpoint) with sorted
//! neighbor lists, giving `O(log d)` adjacency queries and cache-friendly
//! row iteration — the access pattern of both cut evaluation and the
//! matrix-free spectral operators.
//!
//! The paper states MAXCUT for any adjacency matrix `A_ij` (§II.A), so
//! one [`Csr`] serves both kinds of graph, generic over its [`EdgeWeight`]:
//! an unweighted [`Graph`] carries the zero-sized [`Unit`] weight, whose
//! cuts are exact `u64` edge counts, and a [`WeightedGraph`] carries
//! finite `f64` weights (two of the Table-I networks are weighted).
//! Negative weights are permitted for MAXCUT (they prefer keeping their
//! endpoints together), but the spectral operators require non-negative
//! weights.

use crate::cut::CutAssignment;
use crate::error::GraphError;
use snc_linalg::{DMatrix, LinOp};
use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, Sub};

/// The weight of an unweighted graph's edges: zero-sized, `1` in every
/// product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unit;

/// An edge weight of a [`Csr`] graph: [`Unit`] or `f64`.
///
/// Every graph operation is written once against this trait. The unit
/// weight keeps the unweighted arithmetic exact: cuts are integer counts,
/// and a product with its value `1.0` is the other factor bit for bit.
/// `f64` weights sum in the order the rows store them.
pub trait EdgeWeight: Copy + Default + Debug + 'static {
    /// An edge as [`Csr::from_edges`] takes it and [`Csr::edges`] yields
    /// it: `(u, v)` for [`Unit`], `(u, v, w)` for `f64`.
    type Edge: Copy;
    /// A cut value: an exact edge count (`u64`) or a cut weight (`f64`).
    type Cut: Copy + PartialOrd + Debug + Sum<Self>;
    /// The change of a cut value when one vertex flips: `i64` or `f64`.
    type Delta: Copy
        + Default
        + PartialOrd
        + Debug
        + Add<Output = Self::Delta>
        + Sub<Output = Self::Delta>;
    /// Whether cut arithmetic is exact, so a maintained value never
    /// drifts from a scratch evaluation.
    const EXACT: bool;

    /// An edge's endpoints and weight.
    fn split(edge: Self::Edge) -> (u32, u32, Self);
    /// The edge with these endpoints and weight.
    fn join(u: u32, v: u32, w: Self) -> Self::Edge;
    /// Rejects a weight no graph may hold.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] for a non-finite `f64`.
    fn check(self) -> Result<(), GraphError>;
    /// Folds a duplicate edge's weight into this one: a unit edge stays
    /// one edge, `f64` weights add.
    fn merge(&mut self, duplicate: Self);
    /// The weight as a real number (`1.0` for [`Unit`]).
    fn value(self) -> f64;
    /// The weight as a flip-delta term.
    fn delta(self) -> Self::Delta;
    /// `value + delta`.
    fn shift(value: Self::Cut, delta: Self::Delta) -> Self::Cut;
    /// The sum of `weights` in order, as a real number: a weighted
    /// degree, or twice the total weight.
    fn sum(weights: &[Self]) -> f64;
}

impl EdgeWeight for Unit {
    type Edge = (u32, u32);
    type Cut = u64;
    type Delta = i64;
    const EXACT: bool = true;

    fn split((u, v): (u32, u32)) -> (u32, u32, Unit) {
        (u, v, Unit)
    }
    fn join(u: u32, v: u32, _: Unit) -> (u32, u32) {
        (u, v)
    }
    fn check(self) -> Result<(), GraphError> {
        Ok(())
    }
    fn merge(&mut self, _: Unit) {}
    fn value(self) -> f64 {
        1.0
    }
    fn delta(self) -> i64 {
        1
    }
    fn shift(value: u64, delta: i64) -> u64 {
        (value as i64 + delta) as u64
    }
    fn sum(weights: &[Unit]) -> f64 {
        weights.len() as f64
    }
}

/// A unit cut value is the number of crossing edges.
impl Sum<Unit> for u64 {
    fn sum<I: Iterator<Item = Unit>>(iter: I) -> u64 {
        iter.count() as u64
    }
}

impl EdgeWeight for f64 {
    type Edge = (u32, u32, f64);
    type Cut = f64;
    type Delta = f64;
    const EXACT: bool = false;

    fn split(edge: (u32, u32, f64)) -> (u32, u32, f64) {
        edge
    }
    fn join(u: u32, v: u32, w: f64) -> (u32, u32, f64) {
        (u, v, w)
    }
    fn check(self) -> Result<(), GraphError> {
        if self.is_finite() {
            Ok(())
        } else {
            Err(GraphError::InvalidParameter {
                name: "weight",
                constraint: format!("must be finite, got {self}"),
            })
        }
    }
    fn merge(&mut self, duplicate: f64) {
        *self += duplicate;
    }
    fn value(self) -> f64 {
        self
    }
    fn delta(self) -> f64 {
        self
    }
    fn shift(value: f64, delta: f64) -> f64 {
        value + delta
    }
    fn sum(weights: &[f64]) -> f64 {
        weights.iter().sum()
    }
}

/// A simple undirected graph in CSR form, with edge weights `W`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr<W> {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// Aligned with `targets`; takes no memory for [`Unit`].
    weights: Vec<W>,
}

/// An unweighted graph: every edge weighs one.
pub type Graph = Csr<Unit>;

/// A graph with finite `f64` edge weights.
pub type WeightedGraph = Csr<f64>;

impl<W: EdgeWeight> Csr<W> {
    /// Builds a graph from an edge list: `(u, v)` pairs for a [`Graph`],
    /// `(u, v, w)` triples for a [`WeightedGraph`].
    ///
    /// Self-loops are dropped. Duplicate edges (in either orientation)
    /// are merged: unweighted duplicates collapse, weighted ones sum their
    /// weights in input order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`
    /// and [`GraphError::InvalidParameter`] for a non-finite weight.
    pub fn from_edges(n: usize, edges: &[W::Edge]) -> Result<Self, GraphError> {
        let mut pairs: Vec<(u32, u32, W)> = Vec::with_capacity(edges.len());
        for &edge in edges {
            let (u, v, w) = W::split(edge);
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            w.check()?;
            if u == v {
                continue; // drop self-loops
            }
            pairs.push((u.min(v), u.max(v), w));
        }
        // Stable, so duplicates merge in input order.
        pairs.sort_by_key(|&(u, v, _)| (u, v));
        pairs.dedup_by(|next, kept| {
            let duplicate = (next.0, next.1) == (kept.0, kept.1);
            if duplicate {
                kept.2.merge(next.2);
            }
            duplicate
        });

        let mut degree = vec![0usize; n];
        for &(u, v, _) in &pairs {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for &d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut weights = vec![W::default(); offsets[n]];
        let mut cursor = offsets.clone();
        // `pairs` ascends by (u, v) with u < v, so row x first receives
        // its neighbours below x (as the second endpoint, in ascending
        // order of the first) and then those above x (as the first
        // endpoint, ascending): every row comes out sorted.
        for &(u, v, w) in &pairs {
            for (a, b) in [(u, v), (v, u)] {
                targets[cursor[a as usize]] = b;
                weights[cursor[a as usize]] = w;
                cursor[a as usize] += 1;
            }
        }
        Ok(Self {
            n,
            offsets,
            targets,
            weights,
        })
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (merged) undirected edges.
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

    /// Weights aligned with [`Csr::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, i: usize) -> &[W] {
        &self.weights[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The CSR arrays: `targets[offsets[i]..offsets[i + 1]]` is vertex
    /// `i`'s sorted neighbor list and `weights` is aligned with `targets`.
    pub fn rows(&self) -> (&[usize], &[u32], &[W]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Whether `{u, v}` is an edge (`O(log d)` binary search).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Every edge once as `(u, v, w)` with `u < v`, in row order.
    fn triples(&self) -> impl Iterator<Item = (u32, u32, W)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .filter(move |(&v, _)| (u as u32) < v)
                .map(move |(&v, &w)| (u as u32, v, w))
        })
    }

    /// Iterates over each undirected edge once, with `u < v`: `(u, v)` on
    /// a [`Graph`], `(u, v, w)` on a [`WeightedGraph`].
    pub fn edges(&self) -> impl Iterator<Item = W::Edge> + '_ {
        self.triples().map(|(u, v, w)| W::join(u, v, w))
    }

    /// Every edge once as `(u, v, w)` with `u < v` and its weight as a
    /// real number (`1.0` on a [`Graph`]).
    pub fn couplings(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.triples().map(|(u, v, w)| (u, v, w.value()))
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

    /// Weighted degree `Σ_j w_ij` (the degree on a [`Graph`]).
    pub fn weighted_degree(&self, i: usize) -> f64 {
        W::sum(self.neighbor_weights(i))
    }

    /// Sum of all edge weights (`m` on a [`Graph`]).
    pub fn total_weight(&self) -> f64 {
        W::sum(&self.weights) / 2.0
    }

    /// Whether all weights are non-negative (required by the spectral
    /// operators).
    pub fn is_nonnegative(&self) -> bool {
        self.weights.iter().all(|w| w.value() >= 0.0)
    }

    /// The cut value of an assignment: the number of crossing edges on a
    /// [`Graph`], their total weight on a [`WeightedGraph`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n`.
    pub fn cut_value(&self, cut: &CutAssignment) -> W::Cut {
        assert_eq!(cut.len(), self.n, "assignment/graph size mismatch");
        self.triples()
            .filter(|&(u, v, _)| cut.side(u as usize) != cut.side(v as usize))
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Change in cut value if vertex `i` were flipped (positive =
    /// improves): `Δ = Σ same-side w_ij − Σ cross-side w_ij`, the
    /// ingredient of 1-opt local search and the update rule behind
    /// [`crate::CutTracker`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n`.
    pub fn flip_delta(&self, cut: &CutAssignment, i: usize) -> W::Delta {
        assert_eq!(cut.len(), self.n, "assignment/graph size mismatch");
        let si = cut.side(i);
        let mut delta = W::Delta::default();
        for (&j, &w) in self.neighbors(i).iter().zip(self.neighbor_weights(i)) {
            if cut.side(j as usize) == si {
                delta = delta + w.delta();
            } else {
                delta = delta - w.delta();
            }
        }
        delta
    }

    /// `1/√d_i` of every weighted degree `d_i`: the diagonal of
    /// `D^{-1/2}`, with zero for isolated vertices (and, on a signed
    /// graph, for vertices whose degree is not positive).
    pub fn inv_sqrt_degrees(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let d = self.weighted_degree(i);
                if d <= 0.0 {
                    0.0
                } else {
                    1.0 / d.sqrt()
                }
            })
            .collect()
    }

    /// Dense normalized adjacency `D^{-1/2} A D^{-1/2}` (rows/cols of
    /// isolated vertices are zero).
    pub fn normalized_adjacency_dense(&self) -> DMatrix {
        let inv_sqrt = self.inv_sqrt_degrees();
        let mut a = DMatrix::zeros(self.n, self.n);
        for (u, v, w) in self.triples() {
            let (u, v) = (u as usize, v as usize);
            let x = w.value() * inv_sqrt[u] * inv_sqrt[v];
            a[(u, v)] = x;
            a[(v, u)] = x;
        }
        a
    }

    /// Dense Trevisan matrix `I + D^{-1/2} A D^{-1/2}` (§II.B / §IV.B).
    pub fn trevisan_dense(&self) -> DMatrix {
        self.normalized_adjacency_dense().add_scaled_identity(1.0)
    }
}

impl Csr<f64> {
    /// Builds a weighted graph from `(u, v, w)` triples
    /// ([`Csr::from_edges`]).
    ///
    /// # Errors
    ///
    /// As [`Csr::from_edges`].
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<Self, GraphError> {
        Self::from_edges(n, edges)
    }

    /// Lifts an unweighted graph with unit weights.
    pub fn from_graph(graph: &Graph) -> Self {
        Self {
            n: graph.n,
            offsets: graph.offsets.clone(),
            targets: graph.targets.clone(),
            weights: vec![1.0; graph.targets.len()],
        }
    }
}

/// Matrix-free normalized adjacency operator `x ↦ D^{-1/2} A D^{-1/2} x`
/// (weighted degrees on a [`WeightedGraph`]).
///
/// Rows of isolated vertices act as zero. Spectrum lies in `[-1, 1]`.
#[derive(Clone, Debug)]
pub struct NormalizedAdjacency<'g, W = Unit> {
    graph: &'g Csr<W>,
    inv_sqrt_deg: Vec<f64>,
}

impl<'g, W: EdgeWeight> NormalizedAdjacency<'g, W> {
    /// Builds the operator for a graph.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative.
    pub fn new(graph: &'g Csr<W>) -> Self {
        assert!(
            graph.is_nonnegative(),
            "spectral operators require non-negative weights"
        );
        Self {
            graph,
            inv_sqrt_deg: graph.inv_sqrt_degrees(),
        }
    }
}

impl<W: EdgeWeight> LinOp for NormalizedAdjacency<'_, W> {
    fn dim(&self) -> usize {
        self.graph.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&j, &w) in self
                .graph
                .neighbors(i)
                .iter()
                .zip(self.graph.neighbor_weights(i))
            {
                acc += w.value() * self.inv_sqrt_deg[j as usize] * x[j as usize];
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
pub struct TrevisanOperator<'g, W = Unit> {
    inner: NormalizedAdjacency<'g, W>,
}

impl<'g, W: EdgeWeight> TrevisanOperator<'g, W> {
    /// Builds the operator for a graph.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative.
    pub fn new(graph: &'g Csr<W>) -> Self {
        Self {
            inner: NormalizedAdjacency::new(graph),
        }
    }
}

impl<W: EdgeWeight> LinOp for TrevisanOperator<'_, W> {
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
        let weighted = WeightedGraph::from_weighted_edges(
            5,
            &[
                (0, 1, 0.5),
                (1, 2, 2.0),
                (2, 3, 1.5),
                (0, 4, 3.0),
                (1, 3, 0.25),
            ],
        )
        .unwrap();
        let x: Vec<f64> = (0..5).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; 5];

        fn check<W: EdgeWeight>(g: &Csr<W>, x: &[f64], y: &mut [f64]) {
            NormalizedAdjacency::new(g).apply(x, y);
            let dense = g.normalized_adjacency_dense().matvec(x);
            for (a, b) in y.iter().zip(&dense) {
                assert!((a - b).abs() < 1e-14);
            }

            TrevisanOperator::new(g).apply(x, y);
            let dense_tr = g.trevisan_dense().matvec(x);
            for (a, b) in y.iter().zip(&dense_tr) {
                assert!((a - b).abs() < 1e-14);
            }
        }
        check(&g, &x, &mut y);
        check(&weighted, &x, &mut y);
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
