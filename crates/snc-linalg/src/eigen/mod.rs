//! Symmetric eigensolvers.
//!
//! Three routes, matched to the three places the paper needs spectra:
//!
//! * [`jacobi`] — dense cyclic Jacobi, the gold standard for the small and
//!   moderate matrices used in tests and for diagonalizing Lanczos'
//!   tridiagonal projections.
//! * [`power`] — power iteration with Rayleigh-quotient estimates; used to
//!   bound spectra for shifting.
//! * [`lanczos`] — Lanczos with full reorthogonalization and thick restart
//!   from the best Ritz vector; the production path for the Trevisan
//!   minimum-eigenvector computation on graphs (matrix-free through
//!   [`LinOp`]).

pub mod jacobi;
pub mod lanczos;
pub mod power;

use crate::error::LinalgError;

/// A symmetric linear operator `y = A x`, possibly matrix-free.
///
/// Graph operators (adjacency, normalized adjacency, Trevisan matrix) are
/// implemented against this trait in `snc-graph` so eigensolvers never
/// densify large graphs.
pub trait LinOp {
    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`. Implementations must not read `y`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinOp for crate::dense::DMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// Which end of the spectrum to target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    /// The algebraically largest eigenvalue.
    Largest,
    /// The algebraically smallest eigenvalue.
    Smallest,
}

/// An (eigenvalue, eigenvector) pair with a residual estimate.
#[derive(Clone, Debug)]
pub struct EigenPair {
    /// The eigenvalue.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
    /// `‖A v − λ v‖` at termination.
    pub residual: f64,
}

/// Configuration for the iterative eigensolvers.
#[derive(Clone, Copy, Debug)]
pub struct EigenConfig {
    /// Maximum Lanczos subspace dimension per restart cycle.
    pub max_subspace: usize,
    /// Maximum number of restart cycles.
    pub max_restarts: usize,
    /// Residual tolerance `‖A v − λ v‖ ≤ tol`.
    pub tol: f64,
    /// Seed for the random start vector.
    pub seed: u64,
}

impl Default for EigenConfig {
    fn default() -> Self {
        Self {
            max_subspace: 64,
            max_restarts: 200,
            tol: 1e-8,
            seed: 0x5eed,
        }
    }
}

/// Computes an extreme eigenpair of a symmetric operator.
///
/// `Largest` runs Lanczos directly. `Smallest` first estimates an upper
/// bound `σ ≥ λ_max` with a short power iteration, then finds the largest
/// eigenpair of the shifted operator `σI − A` and maps it back — this keeps
/// Lanczos working on the well-separated end of the spectrum, exactly the
/// trick needed for the Trevisan matrix whose spectrum lies in `[0, 2]`.
///
/// # Errors
///
/// Returns [`LinalgError::NotConverged`] if the residual tolerance is not
/// reached, and [`LinalgError::InvalidArgument`] for a zero-dimensional
/// operator.
pub fn extreme_eigenpair(
    op: &dyn LinOp,
    which: Which,
    cfg: &EigenConfig,
) -> Result<EigenPair, LinalgError> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::InvalidArgument("operator dimension is zero"));
    }
    if n == 1 {
        let mut y = [0.0];
        op.apply(&[1.0], &mut y);
        return Ok(EigenPair {
            value: y[0],
            vector: vec![1.0],
            residual: 0.0,
        });
    }
    match which {
        Which::Largest => lanczos::lanczos_largest(op, cfg),
        Which::Smallest => {
            // Conservative bound: ‖A‖₂ ≤ λ via power iteration estimate,
            // inflated by a safety margin.
            let bound = power::spectral_norm_estimate(op, 40, cfg.seed ^ 0xABCD);
            let sigma = bound * 1.05 + 1e-6;
            let shifted = Shifted { op, sigma };
            let pair = lanczos::lanczos_largest(&shifted, cfg)?;
            let mut residual_vec = vec![0.0; n];
            op.apply(&pair.vector, &mut residual_vec);
            let value = sigma - pair.value;
            let mut res = 0.0f64;
            for (r, v) in residual_vec.iter().zip(&pair.vector) {
                let d = r - value * v;
                res += d * d;
            }
            Ok(EigenPair {
                value,
                vector: pair.vector,
                residual: res.sqrt(),
            })
        }
    }
}

/// The operator `σI − A`.
struct Shifted<'a> {
    op: &'a dyn LinOp,
    sigma: f64,
}

impl LinOp for Shifted<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.op.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = self.sigma * xi - *yi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DMatrix;

    fn diag(values: &[f64]) -> DMatrix {
        let n = values.len();
        DMatrix::from_fn(n, n, |i, j| if i == j { values[i] } else { 0.0 })
    }

    #[test]
    fn largest_of_diagonal() {
        let a = diag(&[1.0, 5.0, 3.0, -2.0]);
        let p = extreme_eigenpair(&a, Which::Largest, &EigenConfig::default()).unwrap();
        assert!((p.value - 5.0).abs() < 1e-7, "value={}", p.value);
        assert!(p.vector[1].abs() > 0.999);
    }

    #[test]
    fn smallest_of_diagonal() {
        let a = diag(&[1.0, 5.0, 3.0, -2.0]);
        let p = extreme_eigenpair(&a, Which::Smallest, &EigenConfig::default()).unwrap();
        assert!((p.value + 2.0).abs() < 1e-6, "value={}", p.value);
        assert!(p.vector[3].abs() > 0.999);
    }

    #[test]
    fn one_dimensional_operator() {
        let a = diag(&[7.5]);
        let p = extreme_eigenpair(&a, Which::Largest, &EigenConfig::default()).unwrap();
        assert_eq!(p.value, 7.5);
        assert_eq!(p.vector, vec![1.0]);
    }

    #[test]
    fn dense_symmetric_known_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let hi = extreme_eigenpair(&a, Which::Largest, &EigenConfig::default()).unwrap();
        let lo = extreme_eigenpair(&a, Which::Smallest, &EigenConfig::default()).unwrap();
        assert!((hi.value - 3.0).abs() < 1e-8);
        assert!((lo.value - 1.0).abs() < 1e-6);
        // Eigenvectors are (1,1)/√2 and (1,-1)/√2.
        assert!((hi.vector[0] - hi.vector[1]).abs() < 1e-5);
        assert!((lo.vector[0] + lo.vector[1]).abs() < 1e-5);
    }

    #[test]
    fn residuals_are_small() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let p = extreme_eigenpair(&a, Which::Largest, &EigenConfig::default()).unwrap();
        assert!(p.residual < 1e-7, "residual={}", p.residual);
    }
}
