//! The leaky integrate-and-fire neuron model.
//!
//! The membrane obeys `C dV/dt = −V/R + I_tot` (§III.B). It is read with
//! a plain threshold and never reset, so the update is linear. Over a
//! step `Δt` it is discretized with exponential Euler (exact for
//! piecewise-constant input): `V ← λV + (1−λ)·R·I` with
//! `λ = exp(−Δt/τ)`, `τ = RC`.
//!
//! The update preserves the paper's stationary mean `⟨V⟩ = R⟨I⟩`; its
//! stationary covariance is computed exactly in [`crate::theory`].

/// Membrane parameters shared by a population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LifParams {
    /// Leak resistance `R` (Ω).
    pub r: f64,
    /// Membrane capacitance `C` (F).
    pub c: f64,
    /// Simulation time step `Δt` (s).
    pub dt: f64,
}

impl Default for LifParams {
    fn default() -> Self {
        // τ = 1 with Δt = τ/10: resolves the membrane dynamics while
        // keeping the decorrelation horizon (≈ 5τ = 50 steps) short.
        Self {
            r: 1.0,
            c: 1.0,
            dt: 0.1,
        }
    }
}

impl LifParams {
    /// The membrane time constant `τ = RC`.
    pub fn tau(&self) -> f64 {
        self.r * self.c
    }

    /// The per-step decay multiplier `λ = e^{−Δt/τ}` on `V`.
    pub fn decay(&self) -> f64 {
        (-self.dt / self.tau()).exp()
    }

    /// The per-step multiplier `(1 − λ)·R` on the input current `I`.
    pub fn input_gain(&self) -> f64 {
        (1.0 - self.decay()) * self.r
    }

    /// Number of steps after which membrane autocorrelation drops below
    /// `e^{-5}` — a safe spacing for approximately independent samples.
    pub fn decorrelation_steps(&self) -> u64 {
        let d = self.decay().max(1e-12);
        if d >= 1.0 {
            return 1;
        }
        // Small epsilon guards against ceil(50.0 + 1e-15) = 51 artifacts.
        (((-5.0 / d.ln()) - 1e-9).ceil() as u64).max(1)
    }

    /// One membrane update for a single neuron (the tests' reference).
    #[cfg(test)]
    pub(crate) fn step_v(&self, v: f64, current: f64) -> f64 {
        self.decay() * v + self.input_gain() * current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_stable() {
        let p = LifParams::default();
        assert!((p.tau() - 1.0).abs() < 1e-15);
        assert!((p.decay() - (-0.1f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn zero_input_decays_to_zero() {
        let p = LifParams::default();
        let mut v = 1.0;
        for _ in 0..400 {
            v = p.step_v(v, 0.0);
        }
        assert!(v.abs() < 1e-15);
    }

    #[test]
    fn constant_input_converges_to_ri() {
        // ⟨V⟩ = R·I for constant current.
        let p = LifParams {
            r: 2.0,
            c: 0.5,
            dt: 0.05,
        };
        let mut v = 0.0;
        for _ in 0..2000 {
            v = p.step_v(v, 3.0);
        }
        assert!((v - 6.0).abs() < 1e-9, "v={v}");
    }

    #[test]
    fn exponential_euler_always_stable() {
        let p = LifParams {
            dt: 100.0,
            ..LifParams::default()
        };
        assert!(0.0 < p.decay() && p.decay() < 1.0, "decay={}", p.decay());
    }

    #[test]
    fn decorrelation_steps_scale_with_tau() {
        let fast = LifParams::default(); // τ/Δt = 10 ⇒ ≈ 50 steps
        assert_eq!(fast.decorrelation_steps(), 50);
        let slow = LifParams {
            dt: 0.01,
            ..LifParams::default()
        };
        assert_eq!(slow.decorrelation_steps(), 500);
    }
}
