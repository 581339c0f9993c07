//! The Trevisan "simple spectral" algorithm (§II.B).
//!
//! Compute the eigenvector of the minimum eigenvalue of
//! `I + D^{-1/2} A D^{-1/2}` and threshold it by sign:
//! `v_i = −1 if u_i ≤ 0, +1 otherwise`. This is the software reference for
//! the LIF-Trevisan circuit, which finds the same eigenvector *online*
//! through Oja's anti-Hebbian plasticity.
//!
//! [`SpectralRounding::BestSweep`] additionally implements the sweep-cut
//! refinement evaluated by Mirka & Williamson \[21\]: try every threshold
//! along the sorted eigenvector and keep the best cut. Strictly at least as
//! good as the sign rounding with the same eigenvector.
//!
//! On a weighted graph (two Table-I networks are weighted) the matrix is
//! the weighted `I + D_w^{-1/2} A_w D_w^{-1/2}`, which needs non-negative
//! weights.

use snc_graph::{Csr, CutAssignment, EdgeWeight, TrevisanOperator, Unit};
use snc_linalg::eigen::{extreme_eigenpair, EigenConfig, Which};
use snc_linalg::LinalgError;

/// How the eigenvector is turned into a cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpectralRounding {
    /// Sign thresholding at zero (the paper's rule).
    Sign,
    /// Best of all n−1 sweep cuts along the sorted eigenvector.
    BestSweep,
}

/// Configuration for the spectral solver.
#[derive(Clone, Copy, Debug)]
pub struct TrevisanConfig {
    /// Eigensolver settings.
    pub eigen: EigenConfig,
    /// Rounding rule.
    pub rounding: SpectralRounding,
}

impl Default for TrevisanConfig {
    fn default() -> Self {
        Self {
            eigen: EigenConfig::default(),
            rounding: SpectralRounding::Sign,
        }
    }
}

/// Result of the spectral solver.
#[derive(Clone, Debug)]
pub struct TrevisanSolution<W: EdgeWeight = Unit> {
    /// The minimum eigenvector of the Trevisan matrix.
    pub eigenvector: Vec<f64>,
    /// Its eigenvalue (in `[0, 2]`; 0 exactly iff a bipartite component).
    pub eigenvalue: f64,
    /// The rounded cut.
    pub cut: CutAssignment,
    /// The cut's value.
    pub value: W::Cut,
}

/// Runs the simple spectral algorithm on a graph.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] for a graph with a negative
/// weight and propagates eigensolver non-convergence.
pub fn solve_trevisan<W: EdgeWeight>(
    graph: &Csr<W>,
    cfg: &TrevisanConfig,
) -> Result<TrevisanSolution<W>, LinalgError> {
    if !graph.is_nonnegative() {
        return Err(LinalgError::InvalidArgument(
            "the Trevisan matrix requires non-negative weights",
        ));
    }
    if graph.n() == 0 {
        let cut = CutAssignment::all_ones(0);
        return Ok(TrevisanSolution {
            eigenvector: Vec::new(),
            eigenvalue: 0.0,
            value: graph.cut_value(&cut),
            cut,
        });
    }
    let op = TrevisanOperator::new(graph);
    let pair = extreme_eigenpair(&op, Which::Smallest, &cfg.eigen)?;
    let cut = match cfg.rounding {
        SpectralRounding::Sign => CutAssignment::from_signs(&pair.vector),
        SpectralRounding::BestSweep => best_sweep_cut(graph, &pair.vector),
    };
    let value = cut.cut_value(graph);
    Ok(TrevisanSolution {
        eigenvector: pair.vector,
        eigenvalue: pair.value,
        cut,
        value,
    })
}

/// The best threshold cut along the sorted order of `scores`.
///
/// Starts with every vertex on the `−1` side and moves vertices across in
/// ascending score order, maintaining the cut value incrementally
/// (`O(m + n log n)`).
pub fn best_sweep_cut<W: EdgeWeight>(graph: &Csr<W>, scores: &[f64]) -> CutAssignment {
    let n = graph.n();
    assert_eq!(scores.len(), n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));

    let mut cut = CutAssignment::from_sides(vec![-1; n]);
    // The value relative to the all-`−1` cut (zero).
    let mut value = W::Delta::default();
    let mut best_value = W::Delta::default();
    let mut best_prefix = 0usize; // how many vertices (in order) sit on +1
    for (moved, &v) in order.iter().enumerate() {
        value = value + cut.flip_delta(graph, v);
        cut.flip(v);
        if value > best_value {
            best_value = value;
            best_prefix = moved + 1;
        }
    }
    // Rebuild the best prefix assignment.
    let mut sides = vec![-1i8; n];
    for &v in &order[..best_prefix] {
        sides[v] = 1;
    }
    CutAssignment::from_sides(sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle, petersen};
    use snc_graph::Graph;

    #[test]
    fn bipartite_graphs_are_solved_exactly() {
        // Bipartite: λ_min(I + N) = 0 and the eigenvector signs are the
        // bipartition.
        let g = complete_bipartite(4, 6);
        let sol = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
        assert!(sol.eigenvalue.abs() < 1e-6, "λ={}", sol.eigenvalue);
        assert_eq!(sol.value, 24);
        let g2 = cycle(10);
        let sol2 = solve_trevisan(&g2, &TrevisanConfig::default()).unwrap();
        assert_eq!(sol2.value, 10);
    }

    #[test]
    fn eigenvalue_in_spectral_range() {
        let g = gnp(40, 0.2, 1).unwrap();
        let sol = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
        assert!(
            (-1e-9..=2.0).contains(&sol.eigenvalue),
            "λ={}",
            sol.eigenvalue
        );
        assert_eq!(sol.cut.cut_value(&g), sol.value);
    }

    #[test]
    fn beats_random_expectation_on_er_graphs() {
        for seed in 0..4u64 {
            let g = gnp(50, 0.25, seed).unwrap();
            let sol = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
            assert!(
                sol.value as f64 > 0.5 * g.m() as f64,
                "seed={seed}: {} ≤ m/2",
                sol.value
            );
        }
    }

    #[test]
    fn sweep_never_loses_to_sign() {
        for seed in 0..4u64 {
            let g = gnp(30, 0.3, seed).unwrap();
            let sign = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
            let sweep = solve_trevisan(
                &g,
                &TrevisanConfig {
                    rounding: SpectralRounding::BestSweep,
                    ..TrevisanConfig::default()
                },
            )
            .unwrap();
            assert!(sweep.value >= sign.value, "seed={seed}");
        }
    }

    #[test]
    fn near_optimal_on_petersen() {
        let opt = brute_force(&petersen()).1; // 12
        let sol = solve_trevisan(
            &petersen(),
            &TrevisanConfig {
                rounding: SpectralRounding::BestSweep,
                ..TrevisanConfig::default()
            },
        )
        .unwrap();
        assert!(sol.value >= opt - 2, "got {}, opt {opt}", sol.value);
    }

    #[test]
    fn sweep_cut_handles_constant_scores() {
        let g = cycle(6);
        let cut = best_sweep_cut(&g, &[0.5; 6]);
        // All thresholds tried; best is at least... the best prefix cut.
        assert!(cut.cut_value(&g) >= 2);
    }

    #[test]
    fn empty_and_isolated() {
        let sol = solve_trevisan(&Graph::empty(0), &TrevisanConfig::default()).unwrap();
        assert_eq!(sol.value, 0);
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let sol = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
        assert_eq!(sol.value, 1);
    }
}
