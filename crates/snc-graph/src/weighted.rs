//! Weighted undirected graphs.
//!
//! Two of the paper's Table-I networks (`inf-USAir97`, `eco-stmarks`) are
//! *weighted* graphs — visible in the paper's own numbers (a "cut of 1765"
//! on a 54-vertex food web is only possible with edge weights). The
//! general MAXCUT formulation in §II.A (`max ½ Σ A_ij (1 − v_i v_j)`)
//! already covers weights; this module provides the weighted CSR
//! representation and the weighted spectral operators so the full solver
//! stack (SDP, Trevisan, both circuits) runs on weighted instances.

use crate::csr::Graph;
use crate::cut::CutAssignment;
use crate::error::GraphError;
use snc_devices::{Rng64, Xoshiro256pp};
use snc_linalg::LinOp;

/// A simple undirected graph with finite `f64` edge weights, in CSR form.
///
/// Parallel edges are merged by summing weights; self-loops are dropped.
/// Negative weights are permitted for MAXCUT (they simply prefer keeping
/// endpoints together), but the spectral operators require non-negative
/// weights and check at construction.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedGraph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// Builds a weighted graph from `(u, v, w)` triples.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] for bad endpoints and
    /// [`GraphError::InvalidParameter`] for non-finite weights.
    pub fn from_weighted_edges(n: usize, edges: &[(u32, u32, f64)]) -> Result<Self, GraphError> {
        let mut pairs: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len());
        for &(u, v, w) in edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if !w.is_finite() {
                return Err(GraphError::InvalidParameter {
                    name: "weight",
                    constraint: format!("must be finite, got {w}"),
                });
            }
            if u == v {
                continue;
            }
            pairs.push((u.min(v), u.max(v), w));
        }
        pairs.sort_by_key(|a| (a.0, a.1));
        // Merge duplicates by summing weights.
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(pairs.len());
        for (u, v, w) in pairs {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        let mut degree = vec![0usize; n];
        for &(u, v, _) in &merged {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for &d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut targets = vec![0u32; offsets[n]];
        let mut weights = vec![0.0f64; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &merged {
            targets[cursor[u as usize]] = v;
            weights[cursor[u as usize]] = w;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            weights[cursor[v as usize]] = w;
            cursor[v as usize] += 1;
        }
        // Sort each row by target, carrying weights along.
        for i in 0..n {
            let range = offsets[i]..offsets[i + 1];
            let mut row: Vec<(u32, f64)> = targets[range.clone()]
                .iter()
                .copied()
                .zip(weights[range.clone()].iter().copied())
                .collect();
            row.sort_by_key(|&(t, _)| t);
            for (k, (t, w)) in row.into_iter().enumerate() {
                targets[offsets[i] + k] = t;
                weights[offsets[i] + k] = w;
            }
        }
        Ok(Self {
            n,
            offsets,
            targets,
            weights,
        })
    }

    /// Lifts an unweighted graph with unit weights.
    pub fn from_graph(graph: &Graph) -> Self {
        let edges: Vec<(u32, u32, f64)> = graph.edges().map(|(u, v)| (u, v, 1.0)).collect();
        Self::from_weighted_edges(graph.n(), &edges).expect("valid by construction")
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (merged) undirected edges.
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() / 2.0
    }

    /// Whether all weights are non-negative (required by the spectral
    /// operators).
    pub fn is_nonnegative(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0.0)
    }

    /// Weighted degree `Σ_j w_ij`.
    pub fn weighted_degree(&self, i: usize) -> f64 {
        self.weights[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .sum()
    }

    /// Sorted neighbor list of a vertex.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Weights aligned with [`WeightedGraph::neighbors`].
    pub fn neighbor_weights(&self, i: usize) -> &[f64] {
        &self.weights[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over each edge once as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.neighbor_weights(u))
                .filter(move |(&v, _)| (u as u32) < v)
                .map(move |(&v, &w)| (u as u32, v, w))
        })
    }

    /// The weighted cut value of an assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n`.
    pub fn cut_value(&self, cut: &CutAssignment) -> f64 {
        assert_eq!(cut.len(), self.n, "assignment/graph size mismatch");
        self.edges()
            .filter(|&(u, v, _)| cut.side(u as usize) != cut.side(v as usize))
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Change in weighted cut value if vertex `i` were flipped
    /// (positive = improves): `Δ = Σ same-side w_ij − Σ cross-side w_ij`.
    ///
    /// The weighted analogue of [`Graph`]-based
    /// [`CutAssignment::flip_delta`], and the update rule behind
    /// [`crate::WeightedCutTracker`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from `n`.
    pub fn flip_delta(&self, cut: &CutAssignment, i: usize) -> f64 {
        assert_eq!(cut.len(), self.n, "assignment/graph size mismatch");
        let si = cut.side(i);
        let mut delta = 0.0;
        for (&j, &w) in self.neighbors(i).iter().zip(self.neighbor_weights(i)) {
            if cut.side(j as usize) == si {
                delta += w;
            } else {
                delta -= w;
            }
        }
        delta
    }
}

/// Matrix-free weighted normalized adjacency
/// `x ↦ D_w^{-1/2} A_w D_w^{-1/2} x` (weighted degrees).
///
/// Spectrum lies in `[-1, 1]` for non-negative weights.
#[derive(Clone, Debug)]
pub struct WeightedNormalizedAdjacency<'g> {
    graph: &'g WeightedGraph,
    inv_sqrt_deg: Vec<f64>,
}

impl<'g> WeightedNormalizedAdjacency<'g> {
    /// Builds the operator.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if any weight is negative.
    pub fn new(graph: &'g WeightedGraph) -> Result<Self, GraphError> {
        if !graph.is_nonnegative() {
            return Err(GraphError::InvalidParameter {
                name: "weights",
                constraint: "spectral operators require non-negative weights".to_string(),
            });
        }
        let inv_sqrt_deg = (0..graph.n())
            .map(|i| {
                let d = graph.weighted_degree(i);
                if d <= 0.0 {
                    0.0
                } else {
                    1.0 / d.sqrt()
                }
            })
            .collect();
        Ok(Self {
            graph,
            inv_sqrt_deg,
        })
    }
}

impl LinOp for WeightedNormalizedAdjacency<'_> {
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
                acc += w * self.inv_sqrt_deg[j as usize] * x[j as usize];
            }
            *yi = acc * self.inv_sqrt_deg[i];
        }
    }
}

/// The weighted Trevisan operator `I + D_w^{-1/2} A_w D_w^{-1/2}`.
#[derive(Clone, Debug)]
pub struct WeightedTrevisanOperator<'g> {
    inner: WeightedNormalizedAdjacency<'g>,
}

impl<'g> WeightedTrevisanOperator<'g> {
    /// Builds the operator.
    ///
    /// # Errors
    ///
    /// Same as [`WeightedNormalizedAdjacency::new`].
    pub fn new(graph: &'g WeightedGraph) -> Result<Self, GraphError> {
        Ok(Self {
            inner: WeightedNormalizedAdjacency::new(graph)?,
        })
    }
}

impl LinOp for WeightedTrevisanOperator<'_> {
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

/// Weight distributions for synthesizing weighted stand-ins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightDistribution {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Exponential with the given mean (heavy-ish tail, all positive).
    Exponential {
        /// Mean weight.
        mean: f64,
    },
}

/// Assigns random weights to an unweighted graph's edges.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for invalid distribution
/// parameters.
pub fn randomize_weights(
    graph: &Graph,
    dist: WeightDistribution,
    seed: u64,
) -> Result<WeightedGraph, GraphError> {
    match dist {
        WeightDistribution::Uniform { lo, hi }
            if !(lo.is_finite() && hi.is_finite() && lo < hi) =>
        {
            return Err(GraphError::InvalidParameter {
                name: "uniform bounds",
                constraint: format!("need finite lo < hi, got [{lo}, {hi})"),
            });
        }
        WeightDistribution::Exponential { mean } if !(mean.is_finite() && mean > 0.0) => {
            return Err(GraphError::InvalidParameter {
                name: "mean",
                constraint: format!("must be positive and finite, got {mean}"),
            });
        }
        _ => {}
    }
    let mut rng = Xoshiro256pp::new(seed);
    let edges: Vec<(u32, u32, f64)> = graph
        .edges()
        .map(|(u, v)| {
            let w = match dist {
                WeightDistribution::Uniform { lo, hi } => lo + (hi - lo) * rng.next_f64(),
                WeightDistribution::Exponential { mean } => -mean * (1.0 - rng.next_f64()).ln(),
            };
            (u, v, w)
        })
        .collect();
    WeightedGraph::from_weighted_edges(graph.n(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::structured::{complete_bipartite, cycle};

    fn wg3() -> WeightedGraph {
        WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 0.5)]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let g = wg3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!((g.total_weight() - 5.5).abs() < 1e-12);
        assert!((g.weighted_degree(1) - 5.0).abs() < 1e-12);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbor_weights(1), &[2.0, 3.0]);
        assert!(g.is_nonnegative());
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1, 1.0), (1, 0, 2.5)]).unwrap();
        assert_eq!(g.m(), 1);
        assert!((g.total_weight() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn self_loops_dropped_and_errors() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 0, 5.0), (0, 1, 1.0)]).unwrap();
        assert_eq!(g.m(), 1);
        assert!(WeightedGraph::from_weighted_edges(2, &[(0, 5, 1.0)]).is_err());
        assert!(WeightedGraph::from_weighted_edges(2, &[(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn weighted_cut_values() {
        let g = wg3();
        // Separate vertex 1: cuts edges (0,1)=2 and (1,2)=3.
        let cut = CutAssignment::from_sides(vec![1, -1, 1]);
        assert!((g.cut_value(&cut) - 5.0).abs() < 1e-12);
        assert!((g.cut_value(&cut.complemented()) - 5.0).abs() < 1e-12);
        assert_eq!(g.cut_value(&CutAssignment::all_ones(3)), 0.0);
    }

    #[test]
    fn unit_weights_match_unweighted() {
        let base = cycle(7);
        let g = WeightedGraph::from_graph(&base);
        let cut = CutAssignment::from_sides(vec![1, -1, 1, -1, 1, -1, 1]);
        assert_eq!(g.cut_value(&cut), cut.cut_value(&base) as f64);
    }

    #[test]
    fn weighted_operators_match_unit_case() {
        // With unit weights the weighted operators equal the unweighted.
        let base = cycle(6);
        let wg = WeightedGraph::from_graph(&base);
        let op_w = WeightedTrevisanOperator::new(&wg).unwrap();
        let op_u = crate::csr::TrevisanOperator::new(&base);
        let x: Vec<f64> = (0..6).map(|i| (i as f64).cos()).collect();
        let mut yw = vec![0.0; 6];
        let mut yu = vec![0.0; 6];
        op_w.apply(&x, &mut yw);
        op_u.apply(&x, &mut yu);
        for (a, b) in yw.iter().zip(&yu) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn weighted_normalized_rowsums_are_one_for_positive_weights() {
        // D^{-1/2} A D^{-1/2} applied to D^{1/2}·1 returns D^{1/2}·1 (the
        // Perron vector), i.e. eigenvalue 1.
        let g = wg3();
        let op = WeightedNormalizedAdjacency::new(&g).unwrap();
        let sqrt_deg: Vec<f64> = (0..3).map(|i| g.weighted_degree(i).sqrt()).collect();
        let mut y = vec![0.0; 3];
        op.apply(&sqrt_deg, &mut y);
        for (a, b) in y.iter().zip(&sqrt_deg) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn negative_weights_rejected_by_spectral_ops() {
        let g = WeightedGraph::from_weighted_edges(2, &[(0, 1, -1.0)]).unwrap();
        assert!(!g.is_nonnegative());
        assert!(WeightedNormalizedAdjacency::new(&g).is_err());
        assert!(WeightedTrevisanOperator::new(&g).is_err());
    }

    #[test]
    fn randomize_weights_distributions() {
        let base = complete_bipartite(5, 5);
        let uni =
            randomize_weights(&base, WeightDistribution::Uniform { lo: 1.0, hi: 2.0 }, 3).unwrap();
        assert_eq!(uni.m(), 25);
        for (_, _, w) in uni.edges() {
            assert!((1.0..2.0).contains(&w));
        }
        let exp =
            randomize_weights(&base, WeightDistribution::Exponential { mean: 4.0 }, 3).unwrap();
        let mean = exp.total_weight() / exp.m() as f64;
        assert!((mean - 4.0).abs() < 2.0, "mean={mean}");
        // Determinism.
        let exp2 =
            randomize_weights(&base, WeightDistribution::Exponential { mean: 4.0 }, 3).unwrap();
        assert_eq!(exp, exp2);
        // Bad parameters.
        assert!(
            randomize_weights(&base, WeightDistribution::Uniform { lo: 2.0, hi: 1.0 }, 3).is_err()
        );
        assert!(
            randomize_weights(&base, WeightDistribution::Exponential { mean: -1.0 }, 3).is_err()
        );
    }
}
