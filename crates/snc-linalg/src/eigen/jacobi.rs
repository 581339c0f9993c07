//! Cyclic Jacobi eigendecomposition for dense symmetric matrices.
//!
//! Quadratically convergent, unconditionally stable, and simple enough to
//! trust as the reference solver: Lanczos' projected tridiagonal systems
//! and every unit test in the workspace validate against it. `O(n³)` per
//! sweep, perfectly adequate for the `n ≤ 700` graphs in the paper.

use crate::dense::DMatrix;
use crate::error::LinalgError;

/// Full eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted ascending
/// and eigenvectors as the *columns* of the returned matrix, in matching
/// order. The decomposition satisfies `A = V diag(λ) Vᵀ`.
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] if `a` is not square or not symmetric.
/// * [`LinalgError::NotConverged`] if off-diagonal mass fails to vanish
///   (practically unreachable for finite inputs).
pub fn symmetric_eigen(a: &DMatrix) -> Result<(Vec<f64>, DMatrix), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::InvalidArgument(
            "jacobi requires a square matrix",
        ));
    }
    if !a.is_symmetric(1e-9 * (1.0 + a.frobenius())) {
        return Err(LinalgError::InvalidArgument(
            "jacobi requires a symmetric matrix",
        ));
    }
    let n = a.rows();
    let mut m = a.clone();
    let mut v = DMatrix::identity(n);
    let max_sweeps = 100;

    for _sweep in 0..max_sweeps {
        let off = off_diagonal_norm(&m);
        if off < 1e-13 * (1.0 + m.frobenius()) {
            return Ok(sorted_pairs(m, v));
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // tan of the rotation angle, the numerically stable form.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                rotate(&mut m, &mut v, p, q, c, s);
            }
        }
    }
    Err(LinalgError::NotConverged {
        method: "jacobi",
        iterations: max_sweeps,
        residual: off_diagonal_norm(&m),
    })
}

/// Applies the Jacobi rotation `J(p, q, θ)` as `m ← Jᵀ m J`, `v ← v J`.
fn rotate(m: &mut DMatrix, v: &mut DMatrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    for k in 0..n {
        let mkp = m[(k, p)];
        let mkq = m[(k, q)];
        m[(k, p)] = c * mkp - s * mkq;
        m[(k, q)] = s * mkp + c * mkq;
    }
    for k in 0..n {
        let mpk = m[(p, k)];
        let mqk = m[(q, k)];
        m[(p, k)] = c * mpk - s * mqk;
        m[(q, k)] = s * mpk + c * mqk;
    }
    for k in 0..n {
        let vkp = v[(k, p)];
        let vkq = v[(k, q)];
        v[(k, p)] = c * vkp - s * vkq;
        v[(k, q)] = s * vkp + c * vkq;
    }
}

fn off_diagonal_norm(m: &DMatrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                acc += m[(i, j)] * m[(i, j)];
            }
        }
    }
    acc.sqrt()
}

/// Sorts eigenpairs ascending by eigenvalue.
fn sorted_pairs(m: DMatrix, v: DMatrix) -> (Vec<f64>, DMatrix) {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let values: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("finite eigenvalues")
    });
    let sorted_values: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let sorted_vectors = DMatrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    (sorted_values, sorted_vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        assert_eq!(vals, vec![1.0, 3.0]);
        // Columns are unit coordinate vectors (up to sign).
        assert!(vecs[(1, 0)].abs() > 0.999);
        assert!(vecs[(0, 1)].abs() > 0.999);
    }

    #[test]
    fn known_2x2() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, _) = symmetric_eigen(&a).unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        // A fixed symmetric 5x5.
        let a = DMatrix::from_fn(5, 5, |i, j| {
            let (i, j) = (i.min(j), i.max(j));
            ((i * 5 + j) as f64 * 0.37).sin() + if i == j { 3.0 } else { 0.0 }
        });
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        // V diag(λ) Vᵀ = A.
        let lam = DMatrix::from_fn(5, 5, |i, j| if i == j { vals[i] } else { 0.0 });
        let recon = vecs
            .matmul(&lam)
            .unwrap()
            .matmul(&vecs.transpose())
            .unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-10);
        // VᵀV = I.
        let vtv = vecs.transpose().matmul(&vecs).unwrap();
        assert!(vtv.max_abs_diff(&DMatrix::identity(5)) < 1e-12);
        // Eigenvalues ascending.
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-14);
        }
    }

    #[test]
    fn eigenvector_residuals() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0, -0.5], &[1.0, 3.0, 0.25], &[-0.5, 0.25, 2.0]]);
        let (vals, vecs) = symmetric_eigen(&a).unwrap();
        for (k, &lambda) in vals.iter().enumerate() {
            let v: Vec<f64> = (0..3).map(|i| vecs[(i, k)]).collect();
            let av = a.matvec(&v);
            let mut res = 0.0f64;
            for (x, y) in av.iter().zip(&v) {
                res += (x - lambda * y).powi(2);
            }
            assert!(res.sqrt() < 1e-11, "residual for λ={lambda}");
            assert!((vector::norm(&v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_and_det_invariants() {
        let a = DMatrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]);
        let (vals, _) = symmetric_eigen(&a).unwrap();
        assert!((vals.iter().sum::<f64>() - 6.0).abs() < 1e-12); // trace
        assert!((vals[0] * vals[1] - 1.0).abs() < 1e-12); // det = 5-4
    }

    #[test]
    fn rejects_asymmetric() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(symmetric_eigen(&a).is_err());
        assert!(symmetric_eigen(&DMatrix::zeros(2, 3)).is_err());
    }
}
