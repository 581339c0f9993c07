//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used to sample multivariate Gaussians with a prescribed covariance when
//! only the covariance matrix (not a low-rank factor) is available: if
//! `C = L Lᵀ` then `x = L g` with `g ~ N(0, I)` has covariance `C`. This is
//! the generic path of the Bertsimas–Ye rounding; the LIF-GW circuit itself
//! uses the SDP factor matrix directly.

use crate::dense::DMatrix;
use crate::error::LinalgError;

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: DMatrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &DMatrix) -> Result<Self, LinalgError> {
        Self::with_jitter(a, 0.0)
    }

    /// Factors `a + jitter·I`, a standard regularization for covariance
    /// matrices that are PSD but numerically rank-deficient (as Gram
    /// matrices of rank-r factors with r < n always are).
    ///
    /// # Errors
    ///
    /// Same as [`Cholesky::new`].
    pub fn with_jitter(a: &DMatrix, jitter: f64) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument(
                "cholesky requires a square matrix",
            ));
        }
        let n = a.rows();
        let mut l = DMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)] + jitter;
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)] + if i == j { jitter } else { 0.0 };
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor.
    pub fn factor(&self) -> &DMatrix {
        &self.l
    }

    /// Reconstructs `L Lᵀ` (for testing round-trips).
    pub fn reconstruct(&self) -> DMatrix {
        self.l.matmul(&self.l.transpose()).expect("square factor")
    }

    /// Solves `A x = b` via forward/back substitution.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `b.len()` differs from the matrix size.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let partial: f64 = row[..i].iter().zip(&y[..i]).map(|(l, v)| l * v).sum();
            y[i] = (b[i] - partial) / row[i];
        }
        // Backward: Lᵀ x = y (column access on L = row access on Lᵀ).
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let partial: f64 = (i + 1..n).map(|k| self.l[(k, i)] * x[k]).sum();
            x[i] = (y[i] - partial) / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Applies the factor to a vector: `out = L g` (correlating transform).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the matrix size.
    pub fn correlate_into(&self, g: &[f64], out: &mut [f64]) {
        let n = self.l.rows();
        assert_eq!(g.len(), n);
        assert_eq!(out.len(), n);
        for i in 0..n {
            let row = self.l.row(i);
            // Only the first i+1 entries of row i are nonzero.
            out[i] = row[..=i].iter().zip(&g[..=i]).map(|(a, b)| a * b).sum();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DMatrix {
        // A = Bᵀ B + I for a random-ish B, guaranteed SPD.
        DMatrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
    }

    #[test]
    fn roundtrip_llt() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        assert!(ch.reconstruct().max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn identity_factor() {
        let ch = Cholesky::new(&DMatrix::identity(4)).unwrap();
        assert!(ch.factor().max_abs_diff(&DMatrix::identity(4)) < 1e-15);
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let b = [1.0, -2.0, 0.5];
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_rescues_singular() {
        // Rank-1 Gram matrix (singular) becomes factorizable with jitter.
        let a = DMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::new(&a).is_err());
        assert!(Cholesky::with_jitter(&a, 1e-9).is_ok());
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::new(&DMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn correlate_matches_matvec() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let g = [0.3, -1.2, 0.7];
        let mut out = vec![0.0; 3];
        ch.correlate_into(&g, &mut out);
        let direct = ch.factor().matvec(&g);
        for (u, v) in out.iter().zip(&direct) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn solve_dimension_error() {
        let ch = Cholesky::new(&spd3()).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
