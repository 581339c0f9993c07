//! Synaptic plasticity rules (§III.D).
//!
//! The Hebbian principle ("neurons that fire together, wire together")
//! gives `Δw = y·x`, which is unstable. Oja's modification
//! `Δw = y·(x − y·w)` self-normalizes and converges to the *principal*
//! eigenvector of `Cov(x)`. The anti-Hebbian variant used by the
//! LIF-Trevisan circuit, the one rule implemented here ([`OjaMinor`]),
//!
//! ```text
//! Δw = −y·x + (y² + 1 − wᵀw)·w
//! ```
//!
//! converges to the *minor* (minimum-eigenvalue) eigenvector (Oja 1992),
//! which is exactly the vector Trevisan's simple spectral algorithm
//! thresholds to produce a cut.

use snc_linalg::vector;

/// A learning-rate schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LearningRate {
    /// Constant rate.
    Constant(f64),
    /// Robbins–Monro style decay `η₀ / (1 + t/t₀)`.
    Decay {
        /// Initial rate.
        eta0: f64,
        /// Decay time constant in updates.
        t0: f64,
    },
}

impl LearningRate {
    /// The rate at update index `t`.
    pub fn at(&self, t: u64) -> f64 {
        match *self {
            LearningRate::Constant(eta) => eta,
            LearningRate::Decay { eta0, t0 } => eta0 / (1.0 + t as f64 / t0),
        }
    }
}

/// Oja's anti-Hebbian minor-component rule
/// `Δw = −y·x + (y² + 1 − wᵀw)·w` (Oja 1992): converges to the minimum
/// eigenvector of `Cov(x)` with `‖w‖ → 1`. This is the learning rule of the
/// LIF-Trevisan circuit.
#[derive(Clone, Copy, Debug, Default)]
pub struct OjaMinor;

impl OjaMinor {
    /// Applies one update `w ← w + η·Δw(x, y)` and returns the
    /// postsynaptic activity `y = wᵀx` it computed.
    pub fn update(&self, w: &mut [f64], x: &[f64], eta: f64) -> f64 {
        let y = vector::dot(w, x);
        let norm2 = vector::norm_sq(w);
        let stabilizer = y * y + 1.0 - norm2;
        for (wi, &xi) in w.iter_mut().zip(x) {
            *wi += eta * (-y * xi + stabilizer * *wi);
        }
        y
    }

    /// Applies one update to `R` independent replicas stored
    /// structure-of-arrays: `w[r·neurons ..][..neurons]` is replica `r`'s
    /// weight vector and `x` its activity in the same replica-major layout.
    /// All replicas share one learning rate `eta` (lock-stepped replicas
    /// are at the same update index). Writes `y_r = w_rᵀx_r` into `ys`.
    ///
    /// Each lane is updated with exactly the scalar [`OjaMinor::update`]
    /// expression, so a batched update is bit-for-bit identical to
    /// updating every replica alone (the batched-network equivalence tests
    /// pin it).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != x.len()`, `w.len()` is not a multiple of
    /// `ys.len()`, or `ys` is empty while `w` is not.
    pub fn update_replicas(&self, w: &mut [f64], x: &[f64], eta: f64, ys: &mut [f64]) {
        assert_eq!(w.len(), x.len(), "weight/activity layout mismatch");
        let replicas = ys.len();
        assert!(
            replicas > 0 || w.is_empty(),
            "at least one replica required"
        );
        if replicas == 0 {
            return;
        }
        assert!(
            w.len().is_multiple_of(replicas),
            "weight buffer not replica-major"
        );
        let n = w.len() / replicas;
        for ((w_lane, x_lane), y) in w
            .chunks_exact_mut(n)
            .zip(x.chunks_exact(n))
            .zip(ys.iter_mut())
        {
            *y = self.update(w_lane, x_lane, eta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_linalg::eigen::jacobi::symmetric_eigen;
    use snc_linalg::{Cholesky, DMatrix, GaussianSampler};

    /// Draws zero-mean Gaussian samples with covariance C and trains the
    /// rule.
    fn train(c: &DMatrix, updates: u64, lr: LearningRate, seed: u64) -> Vec<f64> {
        let n = c.rows();
        let ch = Cholesky::with_jitter(c, 1e-12).unwrap();
        let mut gauss = GaussianSampler::new(seed);
        let mut g = vec![0.0; n];
        let mut x = vec![0.0; n];
        // Deterministic, slightly off-axis start.
        let mut w: Vec<f64> = (0..n).map(|i| 0.5 + 0.1 * i as f64).collect();
        vector::normalize(&mut w);
        for t in 0..updates {
            gauss.fill(&mut g);
            ch.correlate_into(&g, &mut x);
            OjaMinor.update(&mut w, &x, lr.at(t));
        }
        w
    }

    fn test_cov() -> DMatrix {
        // Eigenvalues 3, 1, 0.2 with known eigenvectors.
        DMatrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 2.0, 0.0], &[0.0, 0.0, 0.2]])
    }

    #[test]
    fn learning_rate_schedules() {
        assert_eq!(LearningRate::Constant(0.1).at(1000), 0.1);
        let d = LearningRate::Decay {
            eta0: 0.1,
            t0: 100.0,
        };
        assert_eq!(d.at(0), 0.1);
        assert!((d.at(100) - 0.05).abs() < 1e-12);
        assert!(d.at(10_000) < 0.002);
    }

    #[test]
    fn oja_minor_finds_bottom_eigenvector() {
        let c = test_cov();
        let (vals, vecs) = symmetric_eigen(&c).unwrap();
        let bottom: Vec<f64> = (0..3).map(|i| vecs[(i, 0)]).collect();
        assert!((vals[0] - 0.2).abs() < 1e-9);
        let w = train(
            &c,
            60_000,
            LearningRate::Decay {
                eta0: 0.02,
                t0: 5_000.0,
            },
            8,
        );
        let align = vector::alignment(&w, &bottom);
        assert!(align > 0.99, "alignment={align}, w={w:?}");
        assert!((vector::norm(&w) - 1.0).abs() < 0.05);
    }

    #[test]
    fn oja_minor_unit_norm_fixed_point() {
        // At w = unit eigenvector, E[Δw] = 0 (μ ≠ 1 case uses ‖w‖ = 1).
        let c = test_cov();
        let (_, vecs) = symmetric_eigen(&c).unwrap();
        let w0: Vec<f64> = (0..3).map(|i| vecs[(i, 0)]).collect();
        // Expected update direction: −C w + (wᵀCw + 1 − ‖w‖²) w.
        let cw = c.matvec(&w0);
        let wtcw = vector::dot(&w0, &cw);
        let mut expected: Vec<f64> = cw.iter().map(|&v| -v).collect();
        vector::axpy(wtcw + 1.0 - 1.0, &w0, &mut expected);
        assert!(vector::max_abs(&expected) < 1e-9);
    }

    #[test]
    fn update_returns_projection() {
        let mut w = vec![1.0, 0.0];
        let y = OjaMinor.update(&mut w, &[2.0, 5.0], 0.0);
        assert_eq!(y, 2.0);
        assert_eq!(w, vec![1.0, 0.0]); // η = 0 leaves w unchanged
    }

    /// The SoA pass must equal per-replica scalar updates bit-for-bit
    /// across several chained updates.
    #[test]
    fn batched_update_is_bit_exact() {
        let n = 5;
        let replicas = 4;
        // Deterministic, replica-distinct starting weights and inputs.
        let mut w_batch: Vec<f64> = (0..n * replicas)
            .map(|k| ((k * 37 % 11) as f64 - 5.0) * 0.13)
            .collect();
        let mut w_seq = w_batch.clone();
        let mut ys = vec![0.0; replicas];
        for t in 0..20u64 {
            let x: Vec<f64> = (0..n * replicas)
                .map(|k| ((k as u64 * 101 + t * 7) % 13) as f64 * 0.21 - 1.2)
                .collect();
            let eta = 0.05 / (1.0 + t as f64);
            OjaMinor.update_replicas(&mut w_batch, &x, eta, &mut ys);
            for r in 0..replicas {
                let y =
                    OjaMinor.update(&mut w_seq[r * n..(r + 1) * n], &x[r * n..(r + 1) * n], eta);
                assert_eq!(y.to_bits(), ys[r].to_bits(), "y at t={t} r={r}");
            }
            for (k, (a, b)) in w_batch.iter().zip(&w_seq).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "w at t={t} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "replica-major")]
    fn batched_update_rejects_ragged_layout() {
        let mut w = vec![0.0; 7];
        let x = vec![0.0; 7];
        let mut ys = vec![0.0; 2];
        OjaMinor.update_replicas(&mut w, &x, 0.1, &mut ys);
    }
}
