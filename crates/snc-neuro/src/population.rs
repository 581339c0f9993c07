//! Populations of LIF neurons stepped in lock-step.

use crate::lif::{LifParams, Reset};

/// A population of LIF neurons with shared membrane parameters and a
/// spike readout at threshold 0.
#[derive(Clone, Debug)]
pub struct LifPopulation {
    params: LifParams,
    v: Vec<f64>,
    reset: Reset,
    spiked: Vec<bool>,
    steps: u64,
}

impl LifPopulation {
    /// Creates `n` neurons at rest (V = 0).
    pub fn new(n: usize, params: LifParams, reset: Reset) -> Self {
        Self {
            params,
            v: vec![0.0; n],
            reset,
            spiked: vec![false; n],
            steps: 0,
        }
    }

    /// Number of neurons.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The membrane parameters.
    pub fn params(&self) -> &LifParams {
        &self.params
    }

    /// Sets all membrane potentials (e.g. to start at the stationary mean).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the population size.
    #[cfg(test)]
    pub(crate) fn set_potentials(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.v.len());
        self.v.copy_from_slice(v);
    }

    /// Current membrane potentials.
    pub fn potentials(&self) -> &[f64] {
        &self.v
    }

    /// Advances every membrane one step with the given input currents and
    /// applies the threshold/reset readout (a spike is V > 0). Returns
    /// the spike flags.
    ///
    /// # Panics
    ///
    /// Panics if `currents.len()` differs from the population size.
    pub fn step(&mut self, currents: &[f64]) -> &[bool] {
        assert_eq!(currents.len(), self.v.len(), "current vector length");
        let decay = self.params.decay();
        let gain = self.params.input_gain();
        for ((v, &i_in), spk) in self.v.iter_mut().zip(currents).zip(&mut self.spiked) {
            *v = decay * *v + gain * i_in;
            *spk = *v > 0.0;
            if *spk {
                if let Reset::ToValue(rv) = self.reset {
                    *v = rv;
                }
            }
        }
        self.steps += 1;
        &self.spiked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_drive_reaches_mean_and_spikes() {
        let mut pop = LifPopulation::new(2, LifParams::default(), Reset::None);
        let mut spikes0 = 0;
        let mut spikes1 = 0;
        for _ in 0..500 {
            // Stationary V = R·I: +1.0 above the threshold, −1.0 below.
            let s = pop.step(&[1.0, -1.0]);
            spikes0 += s[0] as u32;
            spikes1 += s[1] as u32;
        }
        assert!(spikes0 > 400, "neuron driven above threshold should spike");
        assert_eq!(spikes1, 0, "neuron driven below threshold must stay silent");
        assert!((pop.potentials()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reset_to_value() {
        let mut pop = LifPopulation::new(1, LifParams::default(), Reset::ToValue(-0.5));
        for _ in 0..200 {
            // With reset, V never stays above threshold after a step.
            pop.step(&[1.0]);
            assert!(pop.potentials()[0] <= 0.0);
        }
        // And spiking recurs (the membrane re-charges).
        let mut any_spike = false;
        for _ in 0..100 {
            any_spike |= pop.step(&[1.0])[0];
        }
        assert!(any_spike);
    }

    #[test]
    fn step_counts() {
        let mut pop = LifPopulation::new(1, LifParams::default(), Reset::None);
        assert_eq!(pop.steps(), 0);
        pop.step(&[0.0]);
        pop.step(&[0.0]);
        assert_eq!(pop.steps(), 2);
        assert_eq!(pop.len(), 1);
    }

    #[test]
    #[should_panic(expected = "current vector length")]
    fn wrong_current_length_panics() {
        let mut pop = LifPopulation::new(2, LifParams::default(), Reset::None);
        pop.step(&[1.0]);
    }
}
