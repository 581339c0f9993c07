//! Closed-form stationary statistics of device-driven LIF membranes.
//!
//! With the per-step update `V ← d·V + g·I` (decay `d`, input gain `g` from
//! [`LifParams`]) and i.i.d. input currents `I_t`, the stationary membrane
//! is the geometric sum `V = g · Σ_{k≥0} d^k I_{t−k}`, giving
//!
//! * mean: `⟨V⟩ = g/(1−d) · ⟨I⟩` — which equals the paper's `R⟨I⟩` for
//!   both integrators (§III.B);
//! * covariance: `Cov(V_i, V_j) = g²/(1−d²) · Cov(I_i, I_j)` — the
//!   discrete-time version of the paper's `(R/C)·Var(I)` scaling (§III.B–C).
//!
//! With `I = W s` for a pool of independent devices with `P(s=1) = p`:
//! `⟨I⟩ = p · (row sums of W)` and `Cov(I) = p(1−p) · W Wᵀ`, hence
//!
//! ```text
//! Cov(V) = kappa · W Wᵀ,   kappa = g²/(1−d²) · p(1−p)
//! ```
//!
//! — "the LIF neuron population transforms the device randomness into a set
//! of Gaussian processes with covariance proportional to the Gram matrix of
//! the weight vectors" (§III.C). These formulas place the spike thresholds
//! and predict the covariances that the integration tests verify
//! empirically.

use crate::lif::LifParams;
use crate::synapse::InputWeights;
use snc_linalg::DMatrix;

/// The geometric-sum mean factor `g/(1−d)`; equals `R` for both built-in
/// integrators.
pub fn mean_factor(params: &LifParams) -> f64 {
    params.input_gain() / (1.0 - params.decay())
}

/// The geometric-sum variance factor `g²/(1−d²)`.
pub fn variance_factor(params: &LifParams) -> f64 {
    let d = params.decay();
    let g = params.input_gain();
    g * g / (1.0 - d * d)
}

/// The scalar `kappa` with `Cov(V) = kappa · W Wᵀ` for devices with
/// `P(1) = p`.
pub fn kappa(params: &LifParams, p: f64) -> f64 {
    variance_factor(params) * p * (1.0 - p)
}

/// Full stationary covariance matrix `kappa · W Wᵀ`.
///
/// Densifies the Gram matrix; intended for analysis and tests, not hot
/// paths.
pub fn stationary_covariance(params: &LifParams, weights: &impl InputWeights, p: f64) -> DMatrix {
    let mut g = weights.gram();
    g.scale(kappa(params, p));
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lif::{Integrator, Reset};
    use crate::population::LifPopulation;
    use crate::synapse::DenseWeights;
    use snc_devices::{DeviceModel, DevicePool, PoolSpec};

    #[test]
    fn mean_factor_equals_r() {
        for integrator in [Integrator::ExponentialEuler, Integrator::ForwardEuler] {
            let p = LifParams {
                r: 3.0,
                c: 0.5,
                dt: 0.05,
                integrator,
            };
            assert!(
                (mean_factor(&p) - 3.0).abs() < 1e-12,
                "{integrator:?}: {}",
                mean_factor(&p)
            );
        }
    }

    #[test]
    fn variance_factor_positive_and_consistent() {
        let p = LifParams::default();
        let vf = variance_factor(&p);
        assert!(vf > 0.0);
        // κ maximal for fair coins.
        assert!(kappa(&p, 0.5) > kappa(&p, 0.1));
        assert_eq!(kappa(&p, 0.0), 0.0);
        assert_eq!(kappa(&p, 1.0), 0.0);
    }

    /// The core §III.C claim: empirical membrane covariance matches
    /// `kappa · W Wᵀ`, including the cross-covariance signs induced by
    /// shared and inverted inputs.
    #[test]
    fn empirical_covariance_matches_theory() {
        let params = LifParams::default();
        // 3 neurons, 2 devices: neuron 0 and 1 share device 0 (positive
        // correlation); neuron 2 sees device 0 inverted (negative corr).
        let w = DenseWeights::from_fn(3, 2, |i, a| match (i, a) {
            (0, 0) => 1.0,
            (1, 0) => 0.8,
            (1, 1) => 0.6,
            (2, 0) => -1.0,
            _ => 0.0,
        });
        let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 2), 42);
        let mut pop = LifPopulation::new(3, params, Reset::None);
        // Stationary means ⟨V_i⟩ = mean_factor · p · Σ_α W_iα.
        let means: Vec<f64> = w
            .row_sums()
            .into_iter()
            .map(|s| s * mean_factor(&params) * 0.5)
            .collect();
        pop.set_potentials(&means); // start at stationarity

        let mut current = vec![0.0; 3];
        let steps = 400_000usize;
        let mut acc = [0.0; 9];
        let mut v_mean = [0.0; 3];
        // Warmup.
        for _ in 0..1000 {
            let s = pool.step();
            w.accumulate_words(s, &mut current);
            pop.step(&current);
        }
        for _ in 0..steps {
            let s = pool.step();
            w.accumulate_words(s, &mut current);
            pop.step(&current);
            let v = pop.potentials();
            for i in 0..3 {
                v_mean[i] += v[i];
                for j in 0..3 {
                    acc[3 * i + j] += (v[i] - means[i]) * (v[j] - means[j]);
                }
            }
        }
        let theory = stationary_covariance(&params, &w, 0.5);
        for i in 0..3 {
            let emp_mean = v_mean[i] / steps as f64;
            assert!(
                (emp_mean - means[i]).abs() < 0.02,
                "mean[{i}]: emp={emp_mean} theory={}",
                means[i]
            );
            for j in 0..3 {
                let emp = acc[3 * i + j] / steps as f64;
                let th = theory[(i, j)];
                assert!(
                    (emp - th).abs() < 0.02 * (1.0 + th.abs()),
                    "cov[{i}][{j}]: emp={emp} theory={th}"
                );
            }
        }
        // Sign structure: shared input ⇒ positive, inverted ⇒ negative.
        assert!(theory[(0, 1)] > 0.0);
        assert!(theory[(0, 2)] < 0.0);
    }

    #[test]
    fn covariance_scales_with_weight_scale_squared() {
        let params = LifParams::default();
        let base = DenseWeights::from_fn(2, 2, |i, a| (i + a) as f64 * 0.5 + 0.25);
        let scaled = DenseWeights::from_fn(2, 2, |i, a| ((i + a) as f64 * 0.5 + 0.25) * 3.0);
        let c1 = stationary_covariance(&params, &base, 0.5);
        let c2 = stationary_covariance(&params, &scaled, 0.5);
        for i in 0..2 {
            for j in 0..2 {
                assert!((c2[(i, j)] - 9.0 * c1[(i, j)]).abs() < 1e-12);
            }
        }
    }
}
