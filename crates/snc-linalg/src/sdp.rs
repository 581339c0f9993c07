//! Low-rank (Burer–Monteiro) solver for the MAXCUT semidefinite program.
//!
//! The GW relaxation (§II.A of the paper) assigns a unit vector `w_i ∈ S^{r−1}`
//! to every vertex and maximizes `Σ_{ij∈E} A_ij (1 − w_i·w_j)/2`, which is
//! equivalent to *minimizing* the coupling energy `Σ_{ij∈E} w_ij ⟨v_i, v_j⟩`.
//! Burer–Monteiro replaces the PSD matrix variable with its rank-`r` factor
//! `V` (one row per vertex) and optimizes over the product of spheres — the
//! same "oblique manifold" formulation the paper hands to PyManOpt. We solve
//! it with Riemannian projected gradient descent plus Armijo backtracking.
//!
//! The paper fixes `r = 4` for all graphs (§IV.A); for rank-deficient optima
//! that is enough to get within a fraction of a percent of the true SDP
//! value on the instance sizes evaluated (n ≤ 700). The solver takes any
//! rank in `1..=MAX_RANK` and runs a descent compiled for that rank, so a
//! factor row is a fixed-size array rather than a runtime-length slice.
//!
//! The solver accepts arbitrary signed pairwise couplings so the MAX2SAT and
//! MAXDICUT extensions (§VI) reuse it unchanged.

use crate::dense::DMatrix;
use crate::error::LinalgError;
use crate::vector;
use snc_devices::{Rng64, SplitMix64, Xoshiro256pp};

/// One pairwise coupling term `w · ⟨v_i, v_j⟩` in the SDP energy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coupling {
    /// First vertex index.
    pub i: u32,
    /// Second vertex index.
    pub j: u32,
    /// Coupling weight (positive = wants antipodal, negative = aligned).
    pub w: f64,
}

/// Largest factorization rank the solver accepts. The descent is compiled
/// once for every rank in `1..=MAX_RANK`; the rank ablation sweeps up to
/// 16.
pub const MAX_RANK: usize = 16;

/// Configuration for the Burer–Monteiro solver.
#[derive(Clone, Copy, Debug)]
pub struct SdpConfig {
    /// Factorization rank `r`, in `1..=MAX_RANK` (the paper uses 4).
    pub rank: usize,
    /// Maximum gradient iterations per restart.
    pub max_iters: usize,
    /// Relative Riemannian-gradient tolerance for convergence.
    pub grad_tol: f64,
    /// Number of random restarts; the best energy wins.
    pub restarts: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for SdpConfig {
    fn default() -> Self {
        Self {
            rank: 4,
            max_iters: 2000,
            grad_tol: 1e-7,
            restarts: 1,
            seed: 0x5d9,
        }
    }
}

/// The result of a Burer–Monteiro solve.
#[derive(Clone, Debug)]
pub struct SdpSolution {
    /// The `n × r` factor matrix; row `i` is the unit vector of vertex `i`.
    pub factors: DMatrix,
    /// Final coupling energy `Σ w_ij ⟨v_i, v_j⟩` (minimized).
    pub energy: f64,
    /// Total gradient iterations across restarts.
    pub iterations: usize,
    /// Final Riemannian gradient norm (Frobenius).
    pub grad_norm: f64,
    /// Whether the returned restart stopped at `max_iters` rather than
    /// at the gradient tolerance or a stalled line search — its energy
    /// is then the value of an unconverged iterate.
    pub capped: bool,
}

impl SdpSolution {
    /// The MAXCUT SDP objective `Σ w_ij (1 − v_i·v_j)/2` implied by this
    /// solution, given the total coupling weight `Σ w_ij`.
    ///
    /// For an unweighted graph pass `total_weight = m`. For a (near-)optimal
    /// solution this upper-bounds the maximum cut.
    pub fn cut_upper_bound(&self, total_weight: f64) -> f64 {
        0.5 * (total_weight - self.energy)
    }

    /// The Gram matrix `V Vᵀ` of the factor rows (the covariance the LIF-GW
    /// circuit must realize).
    pub fn gram(&self) -> DMatrix {
        self.factors.gram_rows()
    }

    /// Consumes the solution and returns its factor matrix together with
    /// the implied MAXCUT upper bound (see [`SdpSolution::cut_upper_bound`]).
    ///
    /// This is the pair downstream caches retain — the factor is the
    /// expensive artifact of the offline stage, and moving it out avoids
    /// cloning an `n × r` matrix per cache insert.
    pub fn into_factor_and_bound(self, total_weight: f64) -> (DMatrix, f64) {
        let bound = self.cut_upper_bound(total_weight);
        (self.factors, bound)
    }
}

/// Solves `min Σ w ⟨v_i, v_j⟩` over unit vectors `v_i ∈ S^{r−1}`.
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] for `n == 0`, a rank outside
///   `1..=MAX_RANK`, or a coupling referencing an out-of-range vertex.
pub fn solve_weighted_sdp(
    n: usize,
    couplings: &[Coupling],
    cfg: &SdpConfig,
) -> Result<SdpSolution, LinalgError> {
    if n == 0 {
        return Err(LinalgError::InvalidArgument("sdp: n must be positive"));
    }
    let descend: fn(&Adjacency, &SdpConfig, u64) -> SdpSolution = match cfg.rank {
        1 => descend::<1>,
        2 => descend::<2>,
        3 => descend::<3>,
        4 => descend::<4>,
        5 => descend::<5>,
        6 => descend::<6>,
        7 => descend::<7>,
        8 => descend::<8>,
        9 => descend::<9>,
        10 => descend::<10>,
        11 => descend::<11>,
        12 => descend::<12>,
        13 => descend::<13>,
        14 => descend::<14>,
        15 => descend::<15>,
        16 => descend::<16>,
        _ => return Err(LinalgError::InvalidArgument("sdp: rank must be in 1..=16")),
    };
    for c in couplings {
        if c.i as usize >= n || c.j as usize >= n {
            return Err(LinalgError::InvalidArgument("sdp: coupling vertex out of range"));
        }
    }

    let adj = Adjacency::new(n, couplings);
    let mut best: Option<SdpSolution> = None;
    let mut total_iters = 0usize;
    for restart in 0..cfg.restarts.max(1) {
        let seed = SplitMix64::derive(cfg.seed, restart as u64);
        let sol = descend(&adj, cfg, seed);
        total_iters += sol.iterations;
        match &best {
            Some(b) if b.energy <= sol.energy => {}
            _ => best = Some(sol),
        }
    }
    let mut best = best.expect("at least one restart");
    best.iterations = total_iters;
    Ok(best)
}

/// Convenience wrapper for an unweighted MAXCUT instance.
///
/// # Errors
///
/// Same as [`solve_weighted_sdp`].
pub fn solve_maxcut_sdp(
    n: usize,
    edges: &[(u32, u32)],
    cfg: &SdpConfig,
) -> Result<SdpSolution, LinalgError> {
    let couplings: Vec<Coupling> = edges
        .iter()
        .map(|&(i, j)| Coupling { i, j, w: 1.0 })
        .collect();
    solve_weighted_sdp(n, &couplings, cfg)
}

/// Symmetric adjacency in compressed-row form: each undirected coupling
/// appears from both endpoints, so the gradient is a single pass.
struct Adjacency {
    offsets: Vec<usize>,
    cols: Vec<u32>,
    wts: Vec<f64>,
}

impl Adjacency {
    /// Lists every row's neighbors in coupling order.
    fn new(n: usize, couplings: &[Coupling]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for c in couplings {
            offsets[c.i as usize + 1] += 1;
            offsets[c.j as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cols = vec![0u32; offsets[n]];
        let mut wts = vec![0.0; offsets[n]];
        let mut cursor = offsets[..n].to_vec();
        for c in couplings {
            for (from, to) in [(c.i, c.j), (c.j, c.i)] {
                let slot = &mut cursor[from as usize];
                cols[*slot] = to;
                wts[*slot] = c.w;
                *slot += 1;
            }
        }
        Self { offsets, cols, wts }
    }

    fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row `i`'s neighbors and coupling weights.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.offsets[i]..self.offsets[i + 1];
        self.cols[span.clone()]
            .iter()
            .zip(&self.wts[span])
            .map(|(&j, &w)| (j as usize, w))
    }
}

/// Riemannian gradient descent with Armijo backtracking from one random
/// initialization, at rank `R`.
///
/// The rank is a compile-time constant so every row is an `[f64; R]` the
/// compiler unrolls and keeps in registers. The arithmetic is the same
/// `vector` helpers in the same order at every rank, with no fused
/// multiply-add, so the output bits do not depend on how `R` is compiled.
fn descend<const R: usize>(adj: &Adjacency, cfg: &SdpConfig, seed: u64) -> SdpSolution {
    let n = adj.n();
    let mut rng = Xoshiro256pp::new(seed);
    let mut v: Vec<[f64; R]> = (0..n)
        .map(|_| {
            let mut row = [0.0; R];
            for x in &mut row {
                *x = rng.next_f64() - 0.5;
            }
            if vector::normalize(&mut row) == 0.0 {
                row[0] = 1.0;
            }
            row
        })
        .collect();

    let energy_of = |v: &[[f64; R]]| -> f64 {
        // f = 1/2 Σ_i Σ_{j∈adj(i)} w_ij ⟨v_i, v_j⟩ (each edge twice).
        let mut e = 0.0;
        for (i, vi) in v.iter().enumerate() {
            for (j, w) in adj.row(i) {
                e += w * vector::dot(vi, &v[j]);
            }
        }
        0.5 * e
    };

    let mut grad = vec![[0.0; R]; n];
    let mut trial = vec![[0.0; R]; n];
    let mut energy = energy_of(&v);
    let mut step = 0.5;
    let mut grad_norm = f64::INFINITY;
    let mut iters = 0usize;
    let mut capped = true;

    for _ in 0..cfg.max_iters {
        iters += 1;
        // Riemannian gradient: project Σ w v_j onto the tangent space of
        // each sphere.
        let mut gn2 = 0.0;
        for (i, (vi, gi)) in v.iter().zip(&mut grad).enumerate() {
            // Euclidean gradient for row i, accumulated in a local row.
            let mut g = [0.0; R];
            for (j, w) in adj.row(i) {
                vector::axpy(w, &v[j], &mut g);
            }
            let c = vector::dot(&g, vi);
            vector::axpy(-c, vi, &mut g);
            gn2 += vector::norm_sq(&g);
            *gi = g;
        }
        grad_norm = gn2.sqrt();
        let scale = 1.0 + energy.abs();
        if grad_norm <= cfg.grad_tol * scale {
            capped = false;
            break;
        }

        // Armijo backtracking on the retracted step.
        let mut eta = step;
        let mut accepted = false;
        for _ in 0..40 {
            for ((t, vi), gi) in trial.iter_mut().zip(&v).zip(&grad) {
                let mut row = *vi;
                vector::axpy(-eta, gi, &mut row);
                if vector::normalize(&mut row) == 0.0 {
                    row = *vi;
                }
                *t = row;
            }
            let e_new = energy_of(&trial);
            if e_new <= energy - 1e-4 * eta * gn2 {
                std::mem::swap(&mut v, &mut trial);
                energy = e_new;
                step = (eta * 1.3).min(10.0);
                accepted = true;
                break;
            }
            eta *= 0.5;
        }
        if !accepted {
            // Stalled below line-search resolution.
            capped = false;
            break;
        }
    }

    SdpSolution {
        factors: DMatrix::from_vec(n, R, v.as_flattened().to_vec()),
        energy,
        iterations: iters,
        grad_norm,
        capped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rank: usize) -> SdpConfig {
        SdpConfig {
            rank,
            max_iters: 3000,
            grad_tol: 1e-9,
            restarts: 2,
            seed: 17,
        }
    }

    #[test]
    fn single_edge_goes_antipodal() {
        let sol = solve_maxcut_sdp(2, &[(0, 1)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.0).abs() < 1e-6, "energy={}", sol.energy);
        let dot = vector::dot(sol.factors.row(0), sol.factors.row(1));
        assert!((dot + 1.0).abs() < 1e-5);
        assert!((sol.cut_upper_bound(1.0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn triangle_reaches_sdp_value() {
        // K3: optimal vectors at 120°, energy = 3·(−1/2) = −1.5,
        // SDP cut bound = (3 + 1.5)/2 = 2.25.
        let sol = solve_maxcut_sdp(3, &[(0, 1), (1, 2), (0, 2)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.5).abs() < 1e-4, "energy={}", sol.energy);
        assert!((sol.cut_upper_bound(3.0) - 2.25).abs() < 1e-4);
    }

    #[test]
    fn k4_needs_rank_3() {
        // K4: tetrahedral optimum, v_i·v_j = −1/3, energy = −2.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let sol = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        assert!((sol.energy + 2.0).abs() < 1e-3, "energy={}", sol.energy);
    }

    #[test]
    fn bipartite_square_is_tight() {
        // C4 is bipartite: SDP = OPT = 4 (energy −4).
        let sol = solve_maxcut_sdp(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], &cfg(4)).unwrap();
        assert!((sol.energy + 4.0).abs() < 1e-4, "energy={}", sol.energy);
        assert!((sol.cut_upper_bound(4.0) - 4.0).abs() < 1e-4);
    }

    #[test]
    fn rows_are_unit_norm() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
        let sol = solve_maxcut_sdp(5, &edges, &cfg(4)).unwrap();
        for i in 0..5 {
            assert!((vector::norm(sol.factors.row(i)) - 1.0).abs() < 1e-9);
        }
        assert!(sol.grad_norm < 1e-5);
    }

    #[test]
    fn negative_coupling_aligns() {
        let sol = solve_weighted_sdp(
            2,
            &[Coupling { i: 0, j: 1, w: -2.0 }],
            &cfg(3),
        )
        .unwrap();
        let dot = vector::dot(sol.factors.row(0), sol.factors.row(1));
        assert!((dot - 1.0).abs() < 1e-5);
        assert!((sol.energy + 2.0).abs() < 1e-5);
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let sol = solve_maxcut_sdp(4, &[(0, 1)], &cfg(2)).unwrap();
        assert!((sol.energy + 1.0).abs() < 1e-5);
        for i in 0..4 {
            assert!((vector::norm(sol.factors.row(i)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3)];
        let a = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        let b = solve_maxcut_sdp(4, &edges, &cfg(4)).unwrap();
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.factors, b.factors);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve_maxcut_sdp(0, &[], &cfg(2)).is_err());
        assert!(solve_maxcut_sdp(2, &[(0, 5)], &cfg(2)).is_err());
        let mut c = cfg(2);
        c.rank = 0;
        assert!(solve_maxcut_sdp(2, &[(0, 1)], &c).is_err());
        c.rank = MAX_RANK + 1;
        assert!(matches!(
            solve_maxcut_sdp(2, &[(0, 1)], &c),
            Err(LinalgError::InvalidArgument(_))
        ));
        c.rank = MAX_RANK;
        assert!(solve_maxcut_sdp(2, &[(0, 1)], &c).is_ok());
    }

    #[test]
    fn into_factor_and_bound_matches_the_accessors() {
        let edges = [(0, 1), (1, 2), (0, 2)];
        let sol = solve_maxcut_sdp(3, &edges, &cfg(2)).unwrap();
        let bound = sol.cut_upper_bound(3.0);
        let factors = sol.factors.clone();
        let (extracted, extracted_bound) = sol.into_factor_and_bound(3.0);
        assert_eq!(extracted, factors);
        assert_eq!(extracted_bound, bound);
    }

    #[test]
    fn capped_flags_only_solves_that_ran_out_of_iterations() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
        let converged = solve_maxcut_sdp(5, &edges, &cfg(4)).unwrap();
        assert!(!converged.capped, "converged in {} iterations", converged.iterations);
        let mut short = cfg(4);
        short.max_iters = 2;
        short.restarts = 1;
        let capped = solve_maxcut_sdp(5, &edges, &short).unwrap();
        assert!(capped.capped);
        assert_eq!(capped.iterations, 2);
    }

    #[test]
    fn gram_diagonal_is_one() {
        let sol = solve_maxcut_sdp(3, &[(0, 1), (1, 2)], &cfg(4)).unwrap();
        let g = sol.gram();
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-9);
        }
        assert!(g.is_symmetric(1e-12));
    }
}
