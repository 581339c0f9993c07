//! Row-major dense matrices.
//!
//! [`DMatrix`] is deliberately minimal: storage plus the operations the
//! workspace actually needs (matvec, matmul, Gram products, symmetry
//! checks). Row access returns slices so hot code can stay allocation-free.

use crate::error::LinalgError;
use crate::vector;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Takes ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = vector::dot(self.row(i), x);
        }
    }

    /// Matrix–vector product, allocating the result.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix product `A · B`.
    ///
    /// # Errors
    ///
    /// Returns a dimension error if `self.cols != b.rows`.
    pub fn matmul(&self, b: &DMatrix) -> Result<DMatrix, LinalgError> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                expected: self.cols,
                actual: b.rows,
            });
        }
        let mut out = DMatrix::zeros(self.rows, b.cols);
        // ikj loop order: stream over b's rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self[(i, k)];
                if a_ik == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                vector::axpy(a_ik, brow, orow);
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> DMatrix {
        DMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Gram matrix of the rows: `A Aᵀ` (size `rows × rows`).
    ///
    /// This is the covariance shape used throughout the paper: the LIF
    /// membrane covariance is proportional to the Gram matrix of the
    /// device-to-neuron weight vectors (§III.C).
    pub fn gram_rows(&self) -> DMatrix {
        let n = self.rows;
        let mut g = DMatrix::zeros(n, n);
        for i in 0..n {
            let ri = self.row(i);
            for j in i..n {
                let v = vector::dot(ri, self.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        vector::norm(&self.data)
    }

    /// Maximum absolute entry difference with another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &DMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Whether the matrix is symmetric within tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in i + 1..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        vector::scale(&mut self.data, s);
    }

    /// Returns `A + s·I`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_scaled_identity(&self, s: f64) -> DMatrix {
        assert!(self.is_square());
        let mut m = self.clone();
        for i in 0..self.rows {
            m[(i, i)] += s;
        }
        m
    }
}

impl std::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let id = DMatrix::identity(3);
        assert_eq!(id[(1, 1)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
    }

    #[test]
    fn matvec_known() {
        let m = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn matmul_known_and_identity() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let id = DMatrix::identity(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = DMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(0, 2)], a[(2, 0)]);
    }

    #[test]
    fn gram_rows_is_symmetric_psd_diagonal() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.6, 0.8]]);
        let g = a.gram_rows();
        assert!(g.is_symmetric(0.0));
        assert!((g[(0, 0)] - 1.0).abs() < 1e-15);
        assert!((g[(1, 1)] - 1.0).abs() < 1e-15);
        assert!((g[(0, 1)] - 0.6).abs() < 1e-15);
    }

    #[test]
    fn symmetry_check() {
        let mut a = DMatrix::identity(3);
        assert!(a.is_symmetric(0.0));
        a[(0, 1)] = 0.5;
        assert!(!a.is_symmetric(1e-9));
        a[(1, 0)] = 0.5;
        assert!(a.is_symmetric(0.0));
        assert!(!DMatrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn add_scaled_identity_shifts_diagonal() {
        let a = DMatrix::zeros(2, 2).add_scaled_identity(3.0);
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn frobenius_norm() {
        let a = DMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.frobenius(), 5.0);
    }
}
