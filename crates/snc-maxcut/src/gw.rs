//! The software Goemans–Williamson pipeline (§II.A).
//!
//! Two stages, matching the paper's description exactly:
//!
//! 1. **SDP**: solve the GW relaxation with the Burer–Monteiro low-rank
//!    factorization at fixed rank (4 in the paper, §IV.A) — the role
//!    PyManOpt plays in the paper's evaluation.
//! 2. **Sampling/rounding** (Bertsimas–Ye): draw `g ~ N(0, I_r)` and
//!    threshold `x = W g` by sign. Because `x` is Gaussian with covariance
//!    `W Wᵀ = (w_i · w_j)_{ij}`, this is distribution-identical to the
//!    random-hyperplane rounding.
//!
//! [`GwSampler`] is the software reference the circuits are compared
//! against (the paper's green ▲ curves); the LIF-GW circuit implements the
//! same sampling stage in "hardware".

use crate::graph::MaxCutGraph;
use crate::sampling::CutSampler;
use snc_graph::CutAssignment;
use snc_linalg::{sdp, DMatrix, GaussianSampler, LinalgError, SdpConfig};

/// Configuration for the software GW solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct GwConfig {
    /// Underlying SDP solver configuration (rank 4 by default, per §IV.A).
    pub sdp: SdpConfig,
}

/// The SDP stage's output.
#[derive(Clone, Debug)]
pub struct GwSolution {
    /// The `n × r` factor matrix; row `i` is vertex `i`'s unit vector.
    pub factors: DMatrix,
    /// The SDP objective `Σ w_ij (1 − v_i·v_j)/2` — an upper bound on OPT
    /// at the true optimum.
    pub sdp_bound: f64,
    /// Gradient iterations the solve took, across restarts.
    pub iterations: usize,
    /// Whether the solve stopped at its iteration cap (see
    /// [`snc_linalg::SdpSolution::capped`]).
    pub capped: bool,
}

/// Solves the GW SDP for a graph, unweighted (unit couplings) or
/// weighted. The factor matrix feeds [`GwSampler`] and the LIF-GW
/// circuit unchanged: rounding only looks at the factors.
///
/// # Errors
///
/// Propagates [`LinalgError`] from the SDP solver.
pub fn solve_gw(graph: &impl MaxCutGraph, cfg: &GwConfig) -> Result<GwSolution, LinalgError> {
    let couplings: Vec<sdp::Coupling> = graph
        .couplings()
        .map(|(i, j, w)| sdp::Coupling { i, j, w })
        .collect();
    let sol = sdp::solve_weighted_sdp(graph.n(), &couplings, &cfg.sdp)?;
    let (iterations, capped) = (sol.iterations, sol.capped);
    let (factors, sdp_bound) = sol.into_factor_and_bound(graph.total_weight());
    Ok(GwSolution {
        factors,
        sdp_bound,
        iterations,
        capped,
    })
}

/// The Bertsimas–Ye sampling stage: cuts from sign-thresholded correlated
/// Gaussians.
#[derive(Clone, Debug)]
pub struct GwSampler {
    factors: DMatrix,
    gauss: GaussianSampler,
    g_buf: Vec<f64>,
    x_buf: Vec<f64>,
}

impl GwSampler {
    /// Creates a sampler from the SDP factor matrix.
    pub fn new(factors: DMatrix, seed: u64) -> Self {
        let r = factors.cols();
        let n = factors.rows();
        Self {
            factors,
            gauss: GaussianSampler::new(seed),
            g_buf: vec![0.0; r],
            x_buf: vec![0.0; n],
        }
    }

    /// The factor matrix.
    pub fn factors(&self) -> &DMatrix {
        &self.factors
    }
}

impl CutSampler for GwSampler {
    fn next_cut(&mut self) -> CutAssignment {
        self.gauss
            .correlated_from_factor_into(&self.factors, &mut self.g_buf, &mut self.x_buf);
        CutAssignment::from_signs(&self.x_buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle, petersen};

    #[test]
    fn sdp_bound_upper_bounds_opt() {
        for g in [petersen(), cycle(7), complete_bipartite(3, 5)] {
            let sol = solve_gw(&g, &GwConfig::default()).unwrap();
            let opt = brute_force(&g).1;
            assert!(
                sol.sdp_bound + 1e-4 >= opt as f64,
                "bound {} < opt {opt}",
                sol.sdp_bound
            );
        }
    }

    #[test]
    fn bipartite_sampling_finds_exact_cut() {
        // On bipartite graphs the SDP solution is integral (antipodal
        // vectors), so every sample is the optimal cut.
        let g = complete_bipartite(4, 4);
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut s = GwSampler::new(sol.factors, 1);
        let cut = s.next_cut();
        assert_eq!(cut.cut_value(&g), 16);
    }

    #[test]
    fn beats_random_and_achieves_gw_ratio_on_small_graphs() {
        // Empirically the best-of-64 GW samples should be ≥ 0.878·OPT with
        // huge margin on small instances (usually exactly OPT).
        for seed in 0..4u64 {
            let g = gnp(12, 0.5, seed).unwrap();
            let opt = brute_force(&g).1;
            if opt == 0 {
                continue;
            }
            let sol = solve_gw(&g, &GwConfig::default()).unwrap();
            let mut s = GwSampler::new(sol.factors, seed);
            let trace = sample_best_trace(&mut s, &g, &log2_checkpoints(64));
            let ratio = trace.final_best() as f64 / opt as f64;
            assert!(ratio >= 0.878, "seed={seed} ratio={ratio}");
        }
    }

    #[test]
    fn sampler_is_deterministic() {
        let g = petersen();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut a = GwSampler::new(sol.factors.clone(), 9);
        let mut b = GwSampler::new(sol.factors, 9);
        for _ in 0..10 {
            assert_eq!(a.next_cut(), b.next_cut());
        }
    }

    #[test]
    fn expected_single_sample_ratio_is_gw_like() {
        // Mean single-sample cut / SDP bound should approach the GW
        // guarantee (0.878 in the worst case; higher in practice).
        let g = gnp(30, 0.3, 7).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut s = GwSampler::new(sol.factors, 11);
        let samples = 500;
        let total: u64 = (0..samples).map(|_| s.next_cut().cut_value(&g)).sum();
        let mean = total as f64 / samples as f64;
        assert!(
            mean / sol.sdp_bound > 0.8,
            "mean {mean} vs bound {}",
            sol.sdp_bound
        );
    }
}
