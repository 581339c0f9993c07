//! Gaussian sampling.
//!
//! The Goemans–Williamson rounding step is, per Bertsimas–Ye (§II.A of the
//! paper), the sampling of dependent standard normals with covariance
//! `w_i · w_j` followed by a sign threshold. This module provides:
//!
//! * [`GaussianSampler`] — standard normals via the polar (Marsaglia)
//!   Box–Muller method over any [`Rng64`];
//! * factor-based correlated sampling `x = W g` (`W` the `n × r` SDP factor
//!   matrix, `g ~ N(0, I_r)`), which is exactly what the LIF-GW circuit
//!   implements in "hardware".

use crate::dense::DMatrix;
use snc_devices::{Rng64, Xoshiro256pp};

/// A standard-normal sampler over a deterministic RNG.
#[derive(Clone, Debug)]
pub struct GaussianSampler {
    rng: Xoshiro256pp,
    spare: Option<f64>,
}

impl GaussianSampler {
    /// Creates a sampler from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256pp::new(seed),
            spare: None,
        }
    }

    /// Draws one standard normal variate.
    #[inline]
    pub fn sample(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Marsaglia polar method: rejection-sample a point in the unit
        // disk, transform to two independent normals.
        loop {
            let u = 2.0 * self.rng.next_f64() - 1.0;
            let v = 2.0 * self.rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Fills a slice with independent standard normals.
    pub fn fill(&mut self, out: &mut [f64]) {
        for x in out {
            *x = self.sample();
        }
    }

    /// Samples `x = W g` with `g ~ N(0, I_r)`, writing into `out`.
    ///
    /// The result is a zero-mean Gaussian vector with covariance `W Wᵀ` —
    /// the Gram matrix of the rows of `W`. With `W` the GW SDP factor
    /// matrix this is the Bertsimas–Ye sampling step.
    ///
    /// `g_buf` must have length `w.cols()`; `out` must have length
    /// `w.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths are inconsistent with `w`.
    pub fn correlated_from_factor_into(&mut self, w: &DMatrix, g_buf: &mut [f64], out: &mut [f64]) {
        assert_eq!(g_buf.len(), w.cols());
        assert_eq!(out.len(), w.rows());
        self.fill(g_buf);
        w.matvec_into(g_buf, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn moments_match_standard_normal() {
        let mut s = GaussianSampler::new(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| s.sample()).collect();
        let mean = vector::mean(&xs);
        let var = vector::variance(&xs);
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
        // Skewness ~ 0, |P(X>0) - 0.5| small.
        let pos = xs.iter().filter(|&&x| x > 0.0).count() as f64 / n as f64;
        assert!((pos - 0.5).abs() < 0.01);
    }

    #[test]
    fn tail_mass_is_normal_like() {
        let mut s = GaussianSampler::new(2);
        let n = 200_000;
        let beyond2 = (0..n).filter(|_| s.sample().abs() > 2.0).count() as f64 / n as f64;
        // P(|Z| > 2) ≈ 0.0455.
        assert!((beyond2 - 0.0455).abs() < 0.006, "tail={beyond2}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f64> = {
            let mut s = GaussianSampler::new(7);
            (0..32).map(|_| s.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut s = GaussianSampler::new(7);
            (0..32).map(|_| s.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn factor_sampling_has_target_covariance() {
        // W rows: unit vectors at 60° — covariance (Gram) has 0.5 off-diag.
        let w = DMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 3.0f64.sqrt() / 2.0]]);
        let mut s = GaussianSampler::new(3);
        let mut g = vec![0.0; 2];
        let mut x = vec![0.0; 2];
        let n = 100_000;
        let (mut c00, mut c01, mut c11) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            s.correlated_from_factor_into(&w, &mut g, &mut x);
            c00 += x[0] * x[0];
            c01 += x[0] * x[1];
            c11 += x[1] * x[1];
        }
        let nf = n as f64;
        assert!((c00 / nf - 1.0).abs() < 0.03);
        assert!((c11 / nf - 1.0).abs() < 0.03);
        assert!((c01 / nf - 0.5).abs() < 0.03);
    }
}
