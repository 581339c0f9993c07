//! Random edge weights for weighted stand-ins.
//!
//! Two of the paper's Table-I networks (`inf-USAir97`, `eco-stmarks`) are
//! *weighted* graphs — visible in the paper's own numbers (a "cut of 1765"
//! on a 54-vertex food web is only possible with edge weights). A
//! [`WeightedGraph`] is the `f64` case of the one CSR graph
//! ([`crate::csr`]); this module draws the weights that turn an unweighted
//! stand-in into one.

use crate::csr::{Graph, WeightedGraph};
use crate::error::GraphError;
use snc_devices::{Rng64, Xoshiro256pp};

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
    use crate::csr::NormalizedAdjacency;
    use crate::cut::CutAssignment;
    use crate::generators::structured::{complete_bipartite, cycle};
    use snc_linalg::LinOp;

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
        // With unit weights the f64 operator equals the Unit one.
        let base = cycle(6);
        let wg = WeightedGraph::from_graph(&base);
        let op_w = crate::TrevisanOperator::new(&wg);
        let op_u = crate::TrevisanOperator::new(&base);
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
        let op = NormalizedAdjacency::new(&g);
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
        assert!(std::panic::catch_unwind(|| NormalizedAdjacency::new(&g)).is_err());
        assert!(std::panic::catch_unwind(|| crate::TrevisanOperator::new(&g)).is_err());
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
