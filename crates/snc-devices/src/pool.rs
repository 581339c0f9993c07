//! Pools of stochastic devices advanced in lock-step.
//!
//! The circuits in the paper are driven by a *pool* of `r` random devices
//! whose joint state at each time step is read out as a binary vector
//! (Fig. 1 and Fig. 2, the left-hand "random device pool"). The LIF-GW
//! circuit needs `r = rank(SDP)` devices (4 in the paper); the LIF-Trevisan
//! circuit needs one device per graph vertex.
//!
//! Pools optionally model *cross-device* ("external") correlations through a
//! common-cause latent bit: with probability `c` a device copies the shared
//! latent bit for that time step, otherwise it samples its own model. For
//! fair coins this yields a pairwise output correlation of `c²` between any
//! two devices — a one-parameter knob for the robustness experiments.

use crate::activity::ActivityWords;
use crate::device::{DeviceModel, DeviceState};
use crate::error::{check_probability, DeviceError};
use crate::rng::{Rng64, SplitMix64, Xoshiro256pp};

/// Common-cause cross-correlation configuration for a pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommonCause {
    /// Probability that a device copies the shared latent bit on a step.
    pub coupling: f64,
}

impl CommonCause {
    /// Creates a common-cause coupling with the given copy probability.
    ///
    /// # Errors
    ///
    /// Returns an error unless `coupling ∈ [0, 1]`.
    pub fn new(coupling: f64) -> Result<Self, DeviceError> {
        check_probability("coupling", coupling)?;
        Ok(Self { coupling })
    }
}

/// A specification for constructing a [`DevicePool`].
#[derive(Clone, Debug)]
pub struct PoolSpec {
    models: Vec<DeviceModel>,
    common_cause: Option<CommonCause>,
}

impl PoolSpec {
    /// `count` identical devices of the given model.
    pub fn uniform(model: DeviceModel, count: usize) -> Self {
        Self {
            models: vec![model; count],
            common_cause: None,
        }
    }

    /// Adds common-cause cross-correlation to the pool.
    pub fn with_common_cause(mut self, cc: CommonCause) -> Self {
        self.common_cause = Some(cc);
        self
    }

    /// Number of devices in the specification.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the specification contains no devices.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyPool`] for an empty model list.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.models.is_empty() {
            return Err(DeviceError::EmptyPool);
        }
        Ok(())
    }
}

/// A pool of stochastic devices advanced in lock-step.
///
/// Each device owns an independent RNG stream derived from the pool seed, so
/// the pool's output is invariant to how devices might later be partitioned
/// across threads, and adding a device never perturbs the streams of the
/// others.
///
/// Since the packed-state rework, [`DevicePool::step`] returns a bit-packed
/// [`ActivityWords`] (one bit per device) instead of `&[bool]`. Callers that
/// indexed the old slice (`pool.step()[i]`) now use
/// [`ActivityWords::get`] (`pool.step().get(i)`); callers that need a
/// boolean vector use [`ActivityWords::to_bools`]. The underlying RNG
/// streams are unchanged, so seeded trajectories are bit-for-bit identical
/// to the unpacked implementation.
#[derive(Clone, Debug)]
pub struct DevicePool {
    devices: Vec<DeviceState>,
    rngs: Vec<Xoshiro256pp>,
    latent_rng: Xoshiro256pp,
    common_cause: Option<CommonCause>,
    /// Every device is [`DeviceModel::Fair`] and there is no common
    /// cause, so [`DevicePool::step`] can take the fair-coin path.
    all_fair: bool,
    states: ActivityWords,
}

impl DevicePool {
    /// Builds a pool from a spec and a master seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec is empty; use [`DevicePool::try_new`] for a
    /// fallible constructor.
    pub fn new(spec: PoolSpec, seed: u64) -> Self {
        Self::try_new(spec, seed).expect("invalid pool specification")
    }

    /// Fallible pool construction.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EmptyPool`] for an empty spec.
    pub fn try_new(spec: PoolSpec, seed: u64) -> Result<Self, DeviceError> {
        spec.validate()?;
        let n = spec.models.len();
        let mut rngs = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        for (i, model) in spec.models.into_iter().enumerate() {
            let mut rng = Xoshiro256pp::new(SplitMix64::derive(seed, i as u64));
            devices.push(DeviceState::new(model, &mut rng));
            rngs.push(rng);
        }
        let latent_rng = Xoshiro256pp::new(SplitMix64::derive(seed, u64::MAX));
        let all_fair =
            spec.common_cause.is_none() && devices.iter().all(|d| d.model == DeviceModel::Fair);
        Ok(Self {
            devices,
            rngs,
            latent_rng,
            common_cause: spec.common_cause,
            all_fair,
            states: ActivityWords::zeros(n),
        })
    }

    /// The stationary `P(1)` of each device (common-cause coupling does not
    /// change marginals when the latent bit is fair).
    pub fn stationary_ps(&self) -> Vec<f64> {
        let c = self.common_cause.map_or(0.0, |cc| cc.coupling);
        self.devices
            .iter()
            .map(|d| {
                let own = d.model.stationary_p();
                // With probability c the output is the fair latent bit.
                (1.0 - c) * own + c * 0.5
            })
            .collect()
    }

    /// Advances every device one time step and returns the packed state
    /// vector (bit `i` = device `i`).
    ///
    /// The per-device RNG draw order is identical to the historical
    /// `&[bool]` implementation, so seeded trajectories are unchanged —
    /// only the container is packed. Each 64-device chunk is assembled in
    /// a register and stored with a single word write.
    ///
    /// A pool of only fair devices without a common cause (decided at
    /// construction) skips the per-device model dispatch: each device's
    /// bit is the complemented top bit of its next draw, which is exactly
    /// `next_f64() < 0.5` and consumes the same draw.
    #[inline]
    pub fn step(&mut self) -> &ActivityWords {
        if self.all_fair {
            for (word_idx, rngs) in self.rngs.chunks_mut(64).enumerate() {
                let mut word = 0u64;
                for (bit, rng) in rngs.iter_mut().enumerate() {
                    word |= (!rng.next_u64() >> 63) << bit;
                }
                self.states.set_word(word_idx, word);
            }
            return &self.states;
        }
        let latent = match self.common_cause {
            Some(_) => self.latent_rng.next_bool(0.5),
            None => false,
        };
        let coupling = self.common_cause.map_or(0.0, |cc| cc.coupling);
        let mut word = 0u64;
        let mut word_idx = 0usize;
        for (i, (dev, rng)) in self
            .devices
            .iter_mut()
            .zip(self.rngs.iter_mut())
            .enumerate()
        {
            let own = dev.step(rng);
            let bit = if coupling > 0.0 && rng.next_bool(coupling) {
                latent
            } else {
                own
            };
            word |= (bit as u64) << (i % 64);
            if i % 64 == 63 {
                self.states.set_word(word_idx, word);
                word = 0;
                word_idx += 1;
            }
        }
        if !self.devices.len().is_multiple_of(64) {
            self.states.set_word(word_idx, word);
        }
        &self.states
    }

    /// Collects `t` consecutive state vectors into a row-major matrix
    /// (`t` rows of `len()` booleans), useful for diagnostics.
    #[cfg(test)]
    pub fn record(&mut self, t: usize) -> Vec<Vec<bool>> {
        (0..t).map(|_| self.step().to_bools()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_has_requested_size() {
        let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 10), 1);
        assert_eq!(pool.step().len(), 10);
    }

    #[test]
    fn empty_pool_rejected() {
        assert_eq!(
            DevicePool::try_new(PoolSpec::uniform(DeviceModel::fair(), 0), 1).unwrap_err(),
            DeviceError::EmptyPool
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 5), 42);
        let mut b = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 5), 42);
        for _ in 0..100 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 8), 1);
        let mut b = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 8), 2);
        let ra = a.record(64);
        let rb = b.record(64);
        assert_ne!(ra, rb);
    }

    #[test]
    fn adding_devices_preserves_existing_streams() {
        // Device i's stream is derived from (seed, i), so a 5-device pool
        // and a 6-device pool agree on the first 5 devices.
        let mut a = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 5), 7);
        let mut b = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 6), 7);
        for _ in 0..50 {
            let sa = a.step().to_bools();
            let sb = b.step().to_bools();
            assert_eq!(sa[..], sb[..5]);
        }
    }

    #[test]
    fn fair_fast_path_matches_the_general_path() {
        // `Biased { p: 0.5 }` draws `next_f64() < 0.5` through the general
        // loop; the fair path must produce the same words from the same
        // draws, including across the 64-device word boundary.
        for n in [1usize, 63, 64, 65, 200] {
            let mut fair = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), n), 17);
            let biased_spec = PoolSpec::uniform(DeviceModel::biased(0.5).unwrap(), n);
            let mut biased = DevicePool::new(biased_spec, 17);
            assert!(fair.all_fair && !biased.all_fair);
            for step in 0..500 {
                assert_eq!(fair.step(), biased.step(), "n={n} step {step}");
            }
        }
        let cc = CommonCause::new(0.3).unwrap();
        let coupled = PoolSpec::uniform(DeviceModel::fair(), 8).with_common_cause(cc);
        assert!(
            !DevicePool::new(coupled, 1).all_fair,
            "a common cause needs the general path"
        );
    }

    #[test]
    fn packed_states_match_recorded_bools() {
        // The packed readout and the boolean unpacking agree bit-for-bit,
        // including across the 64-device word boundary.
        for count in [3usize, 64, 65, 130] {
            let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), count), 21);
            for _ in 0..200 {
                let packed = pool.step().clone();
                assert_eq!(packed.len(), count);
                let bools = packed.to_bools();
                assert_eq!(ActivityWords::from_bools(&bools), packed);
                assert_eq!(
                    packed.iter_active().count(),
                    bools.iter().filter(|&&b| b).count()
                );
            }
        }
    }

    /// Pearson correlation of devices `i` and `j` over recorded states.
    fn correlation(rec: &[Vec<bool>], i: usize, j: usize) -> f64 {
        let t = rec.len() as f64;
        let p = |k: usize| rec.iter().filter(|r| r[k]).count() as f64 / t;
        let pij = rec.iter().filter(|r| r[i] && r[j]).count() as f64 / t;
        let (pi, pj) = (p(i), p(j));
        (pij - pi * pj) / (pi * (1.0 - pi) * pj * (1.0 - pj)).sqrt()
    }

    #[test]
    fn independent_fair_devices_are_uncorrelated() {
        let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 4), 3);
        let rec = pool.record(50_000);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let c = correlation(&rec, i, j);
                    assert!(c.abs() < 0.03, "corr[{i}][{j}]={c}");
                }
            }
        }
    }

    #[test]
    fn common_cause_induces_pairwise_correlation() {
        let cc = CommonCause::new(0.6).unwrap();
        let spec = PoolSpec::uniform(DeviceModel::fair(), 4).with_common_cause(cc);
        let mut pool = DevicePool::new(spec, 5);
        let rec = pool.record(80_000);
        // Two fair devices that each copy the latent bit with probability c
        // correlate at c².
        let expected = cc.coupling * cc.coupling; // 0.36
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    let c = correlation(&rec, i, j);
                    assert!(
                        (c - expected).abs() < 0.04,
                        "corr[{i}][{j}]={c} expected {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn common_cause_rejects_bad_coupling() {
        assert!(CommonCause::new(1.5).is_err());
        assert!(CommonCause::new(-0.1).is_err());
    }
}
