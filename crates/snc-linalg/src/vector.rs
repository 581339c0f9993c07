//! Free functions on `&[f64]` slices.
//!
//! Hot inner loops throughout the workspace (LIF stepping, Oja updates,
//! Riemannian gradients) are expressed through these helpers. They are
//! written as straight-line iterator chains so LLVM can vectorize them, and
//! they never allocate.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics in debug builds if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm.
#[inline]
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

/// Normalizes to unit Euclidean norm; returns the original norm.
///
/// Slices with norm below `1e-300` are left untouched (returns 0.0).
#[inline]
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm(a);
    if n > 1e-300 {
        scale(a, 1.0 / n);
        n
    } else {
        0.0
    }
}

/// Maximum absolute entry (0.0 for the empty slice).
#[inline]
pub fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Arithmetic mean (0.0 for the empty slice).
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample variance with Bessel's correction (0.0 for fewer than 2 samples).
#[cfg(test)]
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (a.len() - 1) as f64
}

/// Removes from `v` its projection onto unit vector `u`: `v -= (v·u) u`.
#[inline]
pub fn orthogonalize_against(v: &mut [f64], u: &[f64]) {
    let c = dot(v, u);
    axpy(-c, u, v);
}

/// Cosine of the angle between two vectors (0.0 if either is null).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// |cosine| — alignment ignoring sign, used to compare eigenvectors which
/// are only defined up to sign.
pub fn alignment(a: &[f64], b: &[f64]) -> f64 {
    cosine(a, b).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        let n = normalize(&mut v);
        assert_eq!(n, 5.0);
        assert!((norm(&v) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-15);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn orthogonalization() {
        let u = vec![1.0, 0.0];
        let mut v = vec![2.0, 5.0];
        orthogonalize_against(&mut v, &u);
        assert!(dot(&v, &u).abs() < 1e-15);
        assert_eq!(v, vec![0.0, 5.0]);
    }

    #[test]
    fn cosine_and_alignment() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-15);
        assert!((cosine(&[1.0, 1.0], &[2.0, 2.0]) - 1.0).abs() < 1e-15);
        assert!((alignment(&[1.0, 1.0], &[-1.0, -1.0]) - 1.0).abs() < 1e-15);
        assert_eq!(cosine(&[0.0], &[1.0]), 0.0);
    }
}
