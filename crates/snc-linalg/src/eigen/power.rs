//! Power iteration, used to cheaply estimate spectral norms for the
//! shift-and-invert-free "smallest eigenvalue" path in
//! [`super::extreme_eigenpair`].

use super::LinOp;
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
    fn norm_estimate_bounds_lambda_max() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]); // λmax = 3
        let est = spectral_norm_estimate(&a, 50, 4);
        assert!(est >= 3.0 - 1e-9, "est={est}");
        assert!(est <= 3.5, "est={est}");
    }
}
