//! Lanczos iteration with full reorthogonalization and Ritz restarts.
//!
//! The production eigensolver for the Trevisan path: finds the largest
//! eigenpair of a symmetric operator (callers shift to reach the smallest
//! end). Full reorthogonalization keeps the Krylov basis numerically
//! orthogonal — the classic Lanczos failure mode is ghost eigenvalues from
//! lost orthogonality, unacceptable here because the spectral cut depends
//! on eigen*vector* quality, not just the eigenvalue.

use super::jacobi::symmetric_eigen;
use super::power::random_unit;
use super::{EigenConfig, EigenPair, LinOp};
use crate::dense::DMatrix;
use crate::error::LinalgError;
use crate::vector;

/// Finds the algebraically largest eigenpair of a symmetric operator.
///
/// Restarted Lanczos: builds a Krylov subspace of dimension at most
/// `cfg.max_subspace`, diagonalizes the projected tridiagonal matrix, and
/// restarts from the best Ritz vector until the residual
/// `‖A v − λ v‖ ≤ cfg.tol`.
///
/// # Errors
///
/// [`LinalgError::NotConverged`] after `cfg.max_restarts` cycles;
/// [`LinalgError::InvalidArgument`] for an empty operator.
pub fn lanczos_largest(op: &dyn LinOp, cfg: &EigenConfig) -> Result<EigenPair, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::InvalidArgument("operator dimension is zero"));
    }
    let m = cfg.max_subspace.clamp(2, n.max(2));

    let mut start = vec![0.0; n];
    random_unit(&mut start, cfg.seed);

    let mut best_residual = f64::INFINITY;
    let mut best: Option<EigenPair> = None;

    for restart in 0..cfg.max_restarts.max(1) {
        let (ritz_value, ritz_vector, residual) = lanczos_cycle(op, &start, m)?;
        if residual < best_residual {
            best_residual = residual;
            best = Some(EigenPair {
                value: ritz_value,
                vector: ritz_vector.clone(),
                residual,
            });
        }
        if residual <= cfg.tol {
            return Ok(best.expect("just set"));
        }
        start = ritz_vector;
        let _ = restart;
    }
    Err(LinalgError::NotConverged {
        method: "lanczos",
        iterations: cfg.max_restarts,
        residual: best_residual,
    })
}

/// One Lanczos build-and-extract cycle.
///
/// Returns `(ritz value, ritz vector, residual)` for the largest Ritz pair.
fn lanczos_cycle(
    op: &dyn LinOp,
    start: &[f64],
    m: usize,
) -> Result<(f64, Vec<f64>, f64), LinalgError> {
    let n = op.dim();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m);

    let mut q = start.to_vec();
    if vector::normalize(&mut q) == 0.0 {
        random_unit(&mut q, 0xF00D);
    }
    let mut w = vec![0.0; n];

    for j in 0..m {
        op.apply(&q, &mut w);
        let alpha = vector::dot(&q, &w);
        // w ← w − α q − β q_{j−1}
        vector::axpy(-alpha, &q, &mut w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            vector::axpy(-beta_prev, &basis[j - 1], &mut w);
        }
        // Full reorthogonalization (two passes of modified Gram-Schmidt
        // against the whole basis, including q itself).
        for _ in 0..2 {
            for b in &basis {
                vector::orthogonalize_against(&mut w, b);
            }
            vector::orthogonalize_against(&mut w, &q);
        }
        alphas.push(alpha);
        basis.push(std::mem::take(&mut q));

        let beta = vector::norm(&w);
        if j + 1 == m || beta < 1e-12 {
            // Subspace complete (or invariant subspace found).
            if j + 1 < m {
                betas.push(0.0);
            }
            break;
        }
        betas.push(beta);
        q = w.clone();
        vector::scale(&mut q, 1.0 / beta);
    }

    let k = alphas.len();
    // Projected tridiagonal matrix T.
    let t = DMatrix::from_fn(k, k, |i, j| {
        if i == j {
            alphas[i]
        } else if j == i + 1 || i == j + 1 {
            betas[i.min(j)]
        } else {
            0.0
        }
    });
    let (tvals, tvecs) = symmetric_eigen(&t)?;
    // Largest Ritz pair is the last column.
    let ritz_value = tvals[k - 1];
    let mut ritz_vector = vec![0.0; n];
    for (i, b) in basis.iter().enumerate() {
        vector::axpy(tvecs[(i, k - 1)], b, &mut ritz_vector);
    }
    vector::normalize(&mut ritz_vector);

    // Exact residual (one extra matvec; worth it for a trustworthy stop).
    let mut av = vec![0.0; n];
    op.apply(&ritz_vector, &mut av);
    let mut res = 0.0f64;
    for (a, v) in av.iter().zip(&ritz_vector) {
        let d = a - ritz_value * v;
        res += d * d;
    }
    Ok((ritz_value, ritz_vector, res.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::jacobi::symmetric_eigen;

    fn random_symmetric(n: usize, seed: u64) -> DMatrix {
        use snc_devices::{Rng64, Xoshiro256pp};
        let mut rng = Xoshiro256pp::new(seed);
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rng.next_f64() * 2.0 - 1.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn matches_jacobi_on_random_matrices() {
        for seed in 1..5u64 {
            let a = random_symmetric(30, seed);
            let (vals, _) = symmetric_eigen(&a).unwrap();
            let expect = vals[vals.len() - 1];
            let cfg = EigenConfig {
                seed,
                ..EigenConfig::default()
            };
            let p = lanczos_largest(&a, &cfg).unwrap();
            assert!(
                (p.value - expect).abs() < 1e-6,
                "seed={seed} got={} expect={expect}",
                p.value
            );
        }
    }

    #[test]
    fn subspace_smaller_than_matrix_still_converges() {
        let a = random_symmetric(60, 9);
        let cfg = EigenConfig {
            max_subspace: 12,
            max_restarts: 400,
            ..EigenConfig::default()
        };
        let p = lanczos_largest(&a, &cfg).unwrap();
        let (vals, _) = symmetric_eigen(&a).unwrap();
        assert!((p.value - vals[vals.len() - 1]).abs() < 1e-6);
    }

    #[test]
    fn handles_low_rank_operator() {
        // Rank-1 matrix u uᵀ with ‖u‖² = 14: λmax = 14, everything else 0.
        let u = [1.0, 2.0, 3.0];
        let a = DMatrix::from_fn(3, 3, |i, j| u[i] * u[j]);
        let p = lanczos_largest(&a, &EigenConfig::default()).unwrap();
        assert!((p.value - 14.0).abs() < 1e-8);
        assert!(vector::alignment(&p.vector, &u) > 0.999_999);
    }

    #[test]
    fn eigenvector_quality() {
        let a = random_symmetric(25, 33);
        let p = lanczos_largest(&a, &EigenConfig::default()).unwrap();
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        let k = vals.len() - 1;
        let reference: Vec<f64> = (0..25).map(|i| vecs[(i, k)]).collect();
        assert!(vector::alignment(&p.vector, &reference) > 0.999_99);
    }
}
