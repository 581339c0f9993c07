//! Single stochastic device models.
//!
//! The paper idealizes a stochastic microelectronic device as a coin flip:
//! at every time step the device is in one of two states with some
//! probability (§III.A). The ideal used throughout the paper's evaluation is
//! the *fair* coin. The Discussion (§VI) notes that a real device "may
//! display the statistics of an unfair coin, show internal or external
//! correlations, or display statistics that drift over time" — each of those
//! deviations is a constructor here, so the robustness question becomes an
//! experiment (see `snc-experiments`, robustness study).

use crate::error::{check_probability, DeviceError};
use crate::rng::Rng64;

/// The update semantics of one two-state stochastic device.
///
/// A device is advanced once per simulation time step and yields a boolean
/// state (`true` = "1"/"heads"). All models are Markovian in at most one
/// hidden real parameter, which keeps pools cheap to advance.
#[derive(Clone, Debug, PartialEq)]
pub enum DeviceModel {
    /// An ideal fair coin: `P(1) = 0.5`, independent across time.
    ///
    /// This is the model used in the paper's evaluation (§V).
    Fair,
    /// An unfair coin: `P(1) = p`, independent across time.
    Biased {
        /// Probability of emitting `true`.
        p: f64,
    },
    /// Random telegraph switching: a two-state Markov chain.
    ///
    /// Physical devices such as magnetic tunnel junctions flip between
    /// states with rates that induce *temporal* autocorrelation. With
    /// `p01` = P(0→1) and `p10` = P(1→0), the stationary probability of
    /// state 1 is `p01 / (p01 + p10)` and the lag-1 autocorrelation is
    /// `1 − p01 − p10`.
    Telegraph {
        /// Transition probability from state 0 to state 1 per step.
        p01: f64,
        /// Transition probability from state 1 to state 0 per step.
        p10: f64,
    },
    /// A coin whose bias performs a clamped Gaussian random walk:
    /// `p(t+1) = clamp(p(t) + σ·ξ, lo, hi)` — the "statistics that drift
    /// over time" failure mode.
    Drifting {
        /// Initial bias.
        p0: f64,
        /// Per-step standard deviation of the drift.
        sigma: f64,
        /// Lower clamp for the bias.
        lo: f64,
        /// Upper clamp for the bias.
        hi: f64,
    },
}

impl DeviceModel {
    /// An ideal fair coin.
    pub fn fair() -> Self {
        DeviceModel::Fair
    }

    /// An unfair coin with `P(1) = p`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidProbability`] unless `p ∈ [0, 1]`.
    pub fn biased(p: f64) -> Result<Self, DeviceError> {
        check_probability("p", p)?;
        Ok(DeviceModel::Biased { p })
    }

    /// A telegraph (two-state Markov) device.
    ///
    /// # Errors
    ///
    /// Returns an error unless both transition probabilities are in
    /// `[0, 1]` and at least one is positive (otherwise the chain is frozen).
    pub fn telegraph(p01: f64, p10: f64) -> Result<Self, DeviceError> {
        check_probability("p01", p01)?;
        check_probability("p10", p10)?;
        if p01 == 0.0 && p10 == 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "p01/p10",
                constraint: "at least one transition probability must be positive",
            });
        }
        Ok(DeviceModel::Telegraph { p01, p10 })
    }

    /// A drifting-bias coin.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 ≤ lo ≤ p0 ≤ hi ≤ 1` and `sigma ≥ 0`.
    pub fn drifting(p0: f64, sigma: f64, lo: f64, hi: f64) -> Result<Self, DeviceError> {
        check_probability("p0", p0)?;
        check_probability("lo", lo)?;
        check_probability("hi", hi)?;
        if !(lo <= p0 && p0 <= hi) {
            return Err(DeviceError::InvalidParameter {
                name: "p0",
                constraint: "must satisfy lo <= p0 <= hi",
            });
        }
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "sigma",
                constraint: "must be finite and non-negative",
            });
        }
        Ok(DeviceModel::Drifting { p0, sigma, lo, hi })
    }

    /// The long-run probability of emitting `true`, if well defined.
    pub fn stationary_p(&self) -> f64 {
        match *self {
            DeviceModel::Fair => 0.5,
            DeviceModel::Biased { p } => p,
            DeviceModel::Telegraph { p01, p10 } => p01 / (p01 + p10),
            // A clamped random walk equilibrates to a distribution whose
            // mean is approximately the midpoint of the clamp interval.
            DeviceModel::Drifting { lo, hi, .. } => 0.5 * (lo + hi),
        }
    }

    /// The lag-1 autocorrelation of the emitted bit stream at stationarity.
    ///
    /// Zero for memoryless models; `1 − p01 − p10` for the telegraph model.
    pub fn lag1_autocorrelation(&self) -> f64 {
        match *self {
            DeviceModel::Telegraph { p01, p10 } => 1.0 - p01 - p10,
            _ => 0.0,
        }
    }
}

/// Runtime state for one device instance.
#[derive(Clone, Debug)]
pub(crate) struct DeviceState {
    pub(crate) model: DeviceModel,
    /// Current output state (used by `Telegraph`).
    pub(crate) bit: bool,
    /// Current bias (used by `Drifting`).
    pub(crate) p: f64,
}

impl DeviceState {
    pub(crate) fn new(model: DeviceModel, rng: &mut impl Rng64) -> Self {
        let p = match model {
            DeviceModel::Fair => 0.5,
            DeviceModel::Biased { p } => p,
            DeviceModel::Telegraph { .. } => model.stationary_p(),
            DeviceModel::Drifting { p0, .. } => p0,
        };
        // Start telegraph devices from their stationary distribution so the
        // pool is immediately at equilibrium.
        let bit = rng.next_bool(p);
        Self { model, bit, p }
    }

    /// Advances the device one step and returns the new state.
    #[inline]
    pub(crate) fn step(&mut self, rng: &mut impl Rng64) -> bool {
        match self.model {
            DeviceModel::Fair => {
                self.bit = rng.next_bool(0.5);
            }
            DeviceModel::Biased { p } => {
                self.bit = rng.next_bool(p);
            }
            DeviceModel::Telegraph { p01, p10 } => {
                let flip_p = if self.bit { p10 } else { p01 };
                if rng.next_bool(flip_p) {
                    self.bit = !self.bit;
                }
            }
            DeviceModel::Drifting { sigma, lo, hi, .. } => {
                // Cheap approximate Gaussian step: sum of 4 uniforms,
                // variance 4/12 = 1/3, rescaled to unit variance.
                let z = ((rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64()) - 2.0)
                    * (3.0f64).sqrt();
                self.p = (self.p + sigma * z).clamp(lo, hi);
                self.bit = rng.next_bool(self.p);
            }
        }
        self.bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    fn stream(model: DeviceModel, n: usize, seed: u64) -> Vec<bool> {
        let mut rng = Xoshiro256pp::new(seed);
        let mut st = DeviceState::new(model, &mut rng);
        (0..n).map(|_| st.step(&mut rng)).collect()
    }

    fn freq(bits: &[bool]) -> f64 {
        bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
    }

    #[test]
    fn fair_coin_is_balanced() {
        let bits = stream(DeviceModel::fair(), 100_000, 1);
        assert!((freq(&bits) - 0.5).abs() < 0.01);
    }

    #[test]
    fn biased_coin_matches_p() {
        for &p in &[0.1, 0.3, 0.7, 0.9] {
            let bits = stream(DeviceModel::biased(p).unwrap(), 100_000, 2);
            assert!((freq(&bits) - p).abs() < 0.01, "p={p}");
        }
    }

    #[test]
    fn biased_rejects_bad_p() {
        assert!(DeviceModel::biased(-0.5).is_err());
        assert!(DeviceModel::biased(1.5).is_err());
    }

    #[test]
    fn telegraph_stationary_probability() {
        let m = DeviceModel::telegraph(0.1, 0.3).unwrap();
        assert!((m.stationary_p() - 0.25).abs() < 1e-12);
        let bits = stream(m, 200_000, 3);
        assert!((freq(&bits) - 0.25).abs() < 0.01);
    }

    #[test]
    fn telegraph_autocorrelation_sign() {
        // Slow switching => strongly positive lag-1 autocorrelation.
        let slow = stream(DeviceModel::telegraph(0.02, 0.02).unwrap(), 100_000, 4);
        let mut agree = 0usize;
        for w in slow.windows(2) {
            if w[0] == w[1] {
                agree += 1;
            }
        }
        let agreement = agree as f64 / (slow.len() - 1) as f64;
        // lag-1 corr 0.96 => P(agree) = 0.5*(1+0.96) = 0.98.
        assert!(agreement > 0.95, "agreement={agreement}");
    }

    #[test]
    fn telegraph_rejects_frozen_chain() {
        assert!(DeviceModel::telegraph(0.0, 0.0).is_err());
    }

    #[test]
    fn drifting_stays_clamped() {
        let m = DeviceModel::drifting(0.5, 0.05, 0.3, 0.7).unwrap();
        let mut rng = Xoshiro256pp::new(9);
        let mut st = DeviceState::new(m, &mut rng);
        for _ in 0..10_000 {
            st.step(&mut rng);
            assert!((0.3..=0.7).contains(&st.p));
        }
    }

    #[test]
    fn drifting_rejects_inconsistent_bounds() {
        assert!(DeviceModel::drifting(0.9, 0.01, 0.3, 0.7).is_err());
        assert!(DeviceModel::drifting(0.5, -1.0, 0.3, 0.7).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = stream(DeviceModel::fair(), 1000, 77);
        let b = stream(DeviceModel::fair(), 1000, 77);
        assert_eq!(a, b);
    }
}
