//! Power iteration.
//!
//! Used (a) as a simple baseline eigensolver for testing Lanczos, and
//! (b) to cheaply estimate spectral norms for the shift-and-invert-free
//! "smallest eigenvalue" path in [`super::extreme_eigenpair`].

use super::{EigenPair, LinOp};
use crate::error::LinalgError;
use crate::vector;
use snc_devices::{Rng64, Xoshiro256pp};

/// Fills `v` with a random unit vector.
pub(crate) fn random_unit(v: &mut [f64], seed: u64) {
    let mut rng = Xoshiro256pp::new(seed);
    for x in v.iter_mut() {
        *x = rng.next_f64() - 0.5;
    }
    if vector::normalize(v) == 0.0 {
        v[0] = 1.0;
    }
}

/// Estimates the dominant eigenpair (largest `|λ|`) by power iteration.
///
/// # Errors
///
/// Returns [`LinalgError::NotConverged`] if the residual does not fall
/// below `tol` within `max_iters` iterations, and
/// [`LinalgError::InvalidArgument`] for an empty operator.
pub fn dominant_eigenpair(
    op: &dyn LinOp,
    max_iters: usize,
    tol: f64,
    seed: u64,
) -> Result<EigenPair, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::InvalidArgument("operator dimension is zero"));
    }
    let mut v = vec![0.0; n];
    random_unit(&mut v, seed);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for it in 0..max_iters {
        op.apply(&v, &mut av);
        lambda = vector::dot(&v, &av); // Rayleigh quotient (‖v‖ = 1)
                                       // residual = ‖Av − λv‖
        let mut res = 0.0f64;
        for (a, b) in av.iter().zip(&v) {
            let d = a - lambda * b;
            res += d * d;
        }
        let res = res.sqrt();
        if res <= tol {
            return Ok(EigenPair {
                value: lambda,
                vector: v,
                residual: res,
            });
        }
        std::mem::swap(&mut v, &mut av);
        if vector::normalize(&mut v) == 0.0 {
            // A v = 0: v is an eigenvector with eigenvalue 0.
            std::mem::swap(&mut v, &mut av);
            return Ok(EigenPair {
                value: 0.0,
                vector: v,
                residual: 0.0,
            });
        }
        let _ = it;
    }
    Err(LinalgError::NotConverged {
        method: "power iteration",
        iterations: max_iters,
        residual: {
            op.apply(&v, &mut av);
            let mut res = 0.0f64;
            for (a, b) in av.iter().zip(&v) {
                let d = a - lambda * b;
                res += d * d;
            }
            res.sqrt()
        },
    })
}

/// A quick over-estimate of the spectral norm `‖A‖₂` of a symmetric
/// operator: runs a fixed number of power iterations and inflates the final
/// Rayleigh quotient by the residual, giving a value `≥ λ_max` up to the
/// iteration's accuracy. Never fails; accuracy grows with `iters`.
pub fn spectral_norm_estimate(op: &dyn LinOp, iters: usize, seed: u64) -> f64 {
    let n = op.dim();
    if n == 0 {
        return 0.0;
    }
    let mut v = vec![0.0; n];
    random_unit(&mut v, seed);
    let mut av = vec![0.0; n];
    let mut norm_est = 0.0f64;
    for _ in 0..iters.max(1) {
        op.apply(&v, &mut av);
        let growth = vector::norm(&av);
        norm_est = norm_est.max(growth);
        std::mem::swap(&mut v, &mut av);
        if vector::normalize(&mut v) == 0.0 {
            return norm_est;
        }
    }
    // |Rayleigh| + residual is a rigorous upper bound on the distance to the
    // nearest eigenvalue; add it for safety.
    op.apply(&v, &mut av);
    let lambda = vector::dot(&v, &av);
    let mut res = 0.0f64;
    for (a, b) in av.iter().zip(&v) {
        let d = a - lambda * b;
        res += d * d;
    }
    norm_est.max(lambda.abs() + res.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DMatrix;

    #[test]
    fn finds_dominant_of_diagonal() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 9.0]]);
        let p = dominant_eigenpair(&a, 500, 1e-10, 1).unwrap();
        assert!((p.value - 9.0).abs() < 1e-8);
        assert!(p.vector[1].abs() > 0.9999);
    }

    #[test]
    fn dominant_negative_eigenvalue() {
        let a = DMatrix::from_rows(&[&[-5.0, 0.0], &[0.0, 2.0]]);
        let p = dominant_eigenpair(&a, 2000, 1e-9, 2).unwrap();
        assert!((p.value + 5.0).abs() < 1e-7, "value={}", p.value);
    }

    #[test]
    fn zero_operator_returns_zero() {
        let a = DMatrix::zeros(3, 3);
        let p = dominant_eigenpair(&a, 10, 1e-12, 3).unwrap();
        assert_eq!(p.value, 0.0);
    }

    #[test]
    fn norm_estimate_bounds_lambda_max() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]); // λmax = 3
        let est = spectral_norm_estimate(&a, 50, 4);
        assert!(est >= 3.0 - 1e-9, "est={est}");
        assert!(est <= 3.5, "est={est}");
    }

    #[test]
    fn nonconvergence_reported() {
        // Two equal dominant |λ| of opposite sign make power iteration
        // oscillate forever: [[0,1],[1,0]] has λ = ±1.
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let r = dominant_eigenpair(&a, 50, 1e-12, 5);
        assert!(matches!(r, Err(LinalgError::NotConverged { .. })));
    }
}
