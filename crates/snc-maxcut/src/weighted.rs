//! Weighted MAXCUT: the solvers that are specific to weighted graphs.
//!
//! The paper's formulation (§II.A) is already weighted (`A_ij` is any
//! adjacency matrix), and two of its Table-I networks are weighted. The
//! shared solve path — [`solve`](crate::solve()), [`solve_gw`](crate::solve_gw),
//! [`sample_best_trace`](crate::sample_best_trace), and the Hopfield and
//! LIF-annealed circuits — takes any [`MaxCutGraph`](crate::graph::MaxCutGraph),
//! weighted graphs included. This module holds the rest:
//!
//! * [`solve_trevisan_weighted`] — minimum eigenvector of the *weighted*
//!   Trevisan matrix `I + D_w^{-1/2} A_w D_w^{-1/2}`.
//! * [`brute_force_weighted`] — exact ground truth for small instances.
//!
//! The LIF-TR circuit on a weighted graph is
//! [`BatchedLifTrevisanCircuit`](crate::BatchedLifTrevisanCircuit)
//! programmed with the weighted Trevisan matrix
//! ([`MaxCutGraph::trevisan_weights`](crate::MaxCutGraph::trevisan_weights)).

use snc_graph::weighted::WeightedTrevisanOperator;
use snc_graph::{CutAssignment, WeightedGraph};
use snc_linalg::eigen::{extreme_eigenpair, Which};

/// Result of the weighted Trevisan spectral solver.
#[derive(Clone, Debug)]
pub struct WeightedTrevisanSolution {
    /// The minimum eigenvector of the weighted Trevisan matrix.
    pub eigenvector: Vec<f64>,
    /// Its eigenvalue.
    pub eigenvalue: f64,
    /// The sign-rounded cut and its weighted value.
    pub cut: CutAssignment,
    /// The weighted cut value.
    pub value: f64,
}

/// Runs the weighted Trevisan simple spectral algorithm.
///
/// # Errors
///
/// Returns an error for negative weights or eigensolver non-convergence.
pub fn solve_trevisan_weighted(
    graph: &WeightedGraph,
    eigen: &snc_linalg::eigen::EigenConfig,
) -> Result<WeightedTrevisanSolution, Box<dyn std::error::Error>> {
    let op = WeightedTrevisanOperator::new(graph)?;
    let pair = extreme_eigenpair(&op, Which::Smallest, eigen)?;
    let cut = CutAssignment::from_signs(&pair.vector);
    let value = graph.cut_value(&cut);
    Ok(WeightedTrevisanSolution {
        eigenvector: pair.vector,
        eigenvalue: pair.value,
        cut,
        value,
    })
}

/// Exact weighted maximum cut by enumeration (`n ≤ 26`).
///
/// # Panics
///
/// Panics for more than 26 vertices.
pub fn brute_force_weighted(graph: &WeightedGraph) -> (CutAssignment, f64) {
    let n = graph.n();
    assert!(n <= 26, "weighted brute force limited to n <= 26");
    if n == 0 {
        return (CutAssignment::all_ones(0), 0.0);
    }
    let mut best_value = f64::NEG_INFINITY;
    let mut best_mask = 0u32;
    for mask in 0u32..(1u32 << (n - 1)) {
        let mut value = 0.0;
        for (u, v, w) in graph.edges() {
            let su = (mask >> u) & 1;
            let sv = (mask >> v) & 1;
            if su != sv {
                value += w;
            }
        }
        if value > best_value {
            best_value = value;
            best_mask = mask;
        }
    }
    let sides: Vec<i8> = (0..n)
        .map(|i| if (best_mask >> i) & 1 == 1 { 1 } else { -1 })
        .collect();
    (CutAssignment::from_sides(sides), best_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gw::{solve_gw, GwConfig, GwSampler};
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::structured::{complete_bipartite, cycle};
    use snc_graph::weighted::{randomize_weights, WeightDistribution};

    fn weighted_fixture(seed: u64) -> WeightedGraph {
        let base = snc_graph::generators::erdos_renyi::gnp(12, 0.5, seed).unwrap();
        randomize_weights(
            &base,
            WeightDistribution::Uniform { lo: 0.5, hi: 3.0 },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn brute_force_known_values() {
        // Triangle with weights 2, 3, 0.5: best cut separates vertex 1
        // (cuts 2 + 3 = 5).
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 3.0), (0, 2, 0.5)])
            .unwrap();
        let (cut, v) = brute_force_weighted(&g);
        assert!((v - 5.0).abs() < 1e-12);
        assert!((g.cut_value(&cut) - v).abs() < 1e-12);
    }

    #[test]
    fn negative_weights_prefer_keeping_edges() {
        // One positive, one strongly negative edge: the optimum cuts the
        // positive edge only.
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, 1.0), (1, 2, -5.0)]).unwrap();
        let (cut, v) = brute_force_weighted(&g);
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(cut.side(1), cut.side(2)); // negative edge uncut
    }

    #[test]
    fn weighted_gw_meets_guarantee() {
        for seed in 0..3u64 {
            let g = weighted_fixture(seed);
            let (_, opt) = brute_force_weighted(&g);
            let sol = solve_gw(&g, &GwConfig::default()).unwrap();
            assert!(
                sol.sdp_bound + 1e-6 >= opt,
                "bound {} < {opt}",
                sol.sdp_bound
            );
            let mut sampler = GwSampler::new(sol.factors, seed);
            let trace = sample_best_trace(&mut sampler, &g, &log2_checkpoints(64));
            assert!(
                trace.final_best() >= 0.878 * opt,
                "seed {seed}: {} < 0.878·{opt}",
                trace.final_best()
            );
        }
    }

    #[test]
    fn weighted_trevisan_solves_bipartite() {
        let base = complete_bipartite(4, 4);
        let g =
            randomize_weights(&base, WeightDistribution::Uniform { lo: 1.0, hi: 2.0 }, 7).unwrap();
        let sol = solve_trevisan_weighted(&g, &snc_linalg::eigen::EigenConfig::default()).unwrap();
        assert!(sol.eigenvalue.abs() < 1e-6);
        assert!((sol.value - g.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn weighted_matches_unweighted_on_unit_weights() {
        let base = cycle(9);
        let g = WeightedGraph::from_graph(&base);
        let sol_w =
            solve_trevisan_weighted(&g, &snc_linalg::eigen::EigenConfig::default()).unwrap();
        let sol_u =
            crate::trevisan::solve_trevisan(&base, &crate::trevisan::TrevisanConfig::default())
                .unwrap();
        assert!((sol_w.eigenvalue - sol_u.eigenvalue).abs() < 1e-6);
        assert_eq!(sol_w.value as u64, sol_u.value);
    }

    #[test]
    fn weighted_lif_tr_learns_bipartite() {
        use crate::graph::MaxCutGraph;
        use crate::{BatchedLifTrevisanCircuit, LifTrevisanConfig};
        let base = complete_bipartite(3, 3);
        let g =
            randomize_weights(&base, WeightDistribution::Uniform { lo: 0.5, hi: 1.5 }, 5).unwrap();
        let cfg = LifTrevisanConfig::default();
        let weights = g.trevisan_weights(cfg.network.weight_scale).unwrap();
        let mut circuit = BatchedLifTrevisanCircuit::from_weights(weights, &[3], &cfg);
        let mut stream = || circuit.next_cuts().remove(0);
        let trace = sample_best_trace(&mut stream, &g, &log2_checkpoints(20_000));
        assert!(
            (trace.final_best() - g.total_weight()).abs() < 1e-9,
            "reached {} of {}",
            trace.final_best(),
            g.total_weight()
        );
    }

    #[test]
    fn trace_is_monotone() {
        let g = weighted_fixture(9);
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut sampler = GwSampler::new(sol.factors, 1);
        let trace = sample_best_trace(&mut sampler, &g, &log2_checkpoints(32));
        assert!(trace.best.windows(2).all(|w| w[0] <= w[1]));
    }
}
