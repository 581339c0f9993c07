//! Batched replica execution of the dense circuit motif.
//!
//! Sampling from a stochastic circuit is embarrassingly parallel: replicas
//! of the same network with different device seeds explore independent
//! sample streams (the hardware analogy is simply more circuits).
//! [`ReplicaBatch`] advances `R` replicas of the LIF-GW motif (devices →
//! dense weights → LIF membranes) in lock-step on one core,
//! structure-of-arrays, so each traversal of the weight matrix serves
//! every replica at once. Replicas are independent: lane `r` of an
//! `R`-wide batch is bit for bit the one-seed batch built with `seeds[r]`
//! — batching changes the schedule, never the numbers. LIF-Trevisan's
//! sparse stage 1 runs on the slice gather instead
//! ([`TwoStageNetwork`](crate::TwoStageNetwork)).
//!
//! A thread pool of `ReplicaBatch`es is the full replicas = threads ×
//! batch-width layout ([`default_threads`] sizes the pool).

use crate::lif::LifParams;
use crate::synapse::{DensePlan, DenseWeights, InputWeights};
use crate::theory;
use snc_devices::{ActivityWords, DevicePool, PoolSpec};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `R` replicas of one device-driven circuit over dense weights, advanced
/// in lock-step, structure-of-arrays.
///
/// Every replica shares the same weight matrix, membrane parameters, and
/// thresholds; only the device seeds differ. Membranes are stored
/// replica-major (`v[r * n + i]`). One pass over the weight matrix per
/// time step feeds all replicas (at the paper's rank, one memoized
/// current row per replica), and the decay–accumulate membrane update
/// runs over one contiguous buffer.
///
/// Replicas are independent: lane `r`'s trajectory is bit for bit that
/// of a one-seed batch with seed `seeds[r]` — the per-replica RNG
/// streams, the ascending-column accumulation order, and the membrane
/// update expression are all preserved exactly. A one-seed batch steps
/// through the scalar [`DenseWeights::accumulate_words`] kernel (or a
/// pattern row it computed), so it is an independent reference for the
/// multi-replica kernel.
///
/// # Examples
///
/// ```
/// use snc_devices::{DeviceModel, PoolSpec};
/// use snc_linalg::DMatrix;
/// use snc_neuro::parallel::ReplicaBatch;
/// use snc_neuro::{DenseWeights, LifParams};
///
/// // 3 neurons driven by 2 devices, 4 replicas with seeds 0..4.
/// let m = DMatrix::from_rows(&[&[1.0, 0.2], &[-0.4, 0.9], &[0.3, 0.3]]);
/// let weights = DenseWeights::from_matrix_scaled(&m, 1.0);
/// let spec = PoolSpec::uniform(DeviceModel::fair(), 2);
/// let mut batch = ReplicaBatch::new(spec, &[0, 1, 2, 3], weights,
///                                   LifParams::default());
/// batch.step_many(100);
/// assert_eq!((batch.replicas(), batch.neurons()), (4, 3));
/// // Read replica 2's mean-centered membranes (replica-major).
/// let mut centered = vec![0.0; 4 * 3];
/// batch.centered_into(&mut centered);
/// ```
#[derive(Clone, Debug)]
pub struct ReplicaBatch {
    pools: Vec<DevicePool>,
    weights: DenseWeights,
    plan: DensePlan,
    params: LifParams,
    /// Per-neuron thresholds (= analytic stationary means), shared by all
    /// replicas.
    means: Vec<f64>,
    /// Membranes, replica-major: `v[r * neurons + i]`.
    v: Vec<f64>,
    /// Synaptic currents, same layout as `v`.
    current: Vec<f64>,
    /// Per-replica packed device states for the current step.
    states: Vec<ActivityWords>,
}

impl ReplicaBatch {
    /// Builds `seeds.len()` replicas of the circuit motif: pools from the
    /// shared `spec` (one per seed), thresholds at the analytic stationary
    /// means, membranes starting at those means (the circuit begins at
    /// statistical equilibrium).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or the spec size differs from the weight
    /// matrix's device count.
    pub fn new(spec: PoolSpec, seeds: &[u64], weights: DenseWeights, params: LifParams) -> Self {
        assert!(!seeds.is_empty(), "at least one replica seed required");
        assert_eq!(
            spec.len(),
            weights.devices(),
            "pool size must match weight columns"
        );
        let pools: Vec<DevicePool> = seeds
            .iter()
            .map(|&s| DevicePool::new(spec.clone(), s))
            .collect();
        let n = weights.neurons();
        let replicas = pools.len();
        // All pools share one spec, so their stationary probabilities (and
        // hence the analytic means) are identical; compute once.
        let ps = pools[0].stationary_ps();
        let mut means = vec![0.0; n];
        weights.apply(&ps, &mut means);
        let mf = theory::mean_factor(&params);
        for m in &mut means {
            *m *= mf;
        }
        let v = means.repeat(replicas);
        let states = vec![ActivityWords::zeros(spec.len()); replicas];
        let plan = weights.batch_plan();
        Self {
            pools,
            weights,
            plan,
            params,
            means,
            v,
            current: vec![0.0; n * replicas],
            states,
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.pools.len()
    }

    /// Number of neurons per replica.
    pub fn neurons(&self) -> usize {
        self.means.len()
    }

    /// Number of devices per replica.
    pub fn devices(&self) -> usize {
        self.weights.devices()
    }

    /// The analytic stationary means (= spike thresholds), shared by all
    /// replicas.
    #[cfg(test)]
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The membrane potential of neuron `i` in replica `r`.
    #[cfg(test)]
    fn potential(&self, i: usize, r: usize) -> f64 {
        self.v[r * self.neurons() + i]
    }

    /// Writes every replica's mean-centered membrane potentials into
    /// `out`, replica-major (`out[r * neurons() + i] = V_{i,r} −
    /// means[i]`); each element is one subtraction, `V − mean`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != neurons() * replicas()`.
    pub fn centered_into(&self, out: &mut [f64]) {
        let n = self.neurons();
        assert_eq!(out.len(), n * self.replicas(), "centered buffer length");
        for (o_lane, v_lane) in out.chunks_exact_mut(n).zip(self.v.chunks_exact(n)) {
            for ((o, &vv), &m) in o_lane.iter_mut().zip(v_lane).zip(&self.means) {
                *o = vv - m;
            }
        }
    }

    /// Writes replica `r`'s spike flags (`V > threshold`) from the most
    /// recent step into `out`: the lane tests' reference for
    /// [`ReplicaBatch::spike_lane_into`].
    #[cfg(test)]
    pub(crate) fn spiked_into(&self, r: usize, out: &mut [bool]) {
        let n = self.neurons();
        assert!(r < self.replicas(), "replica index out of range");
        assert_eq!(out.len(), n, "spike buffer length");
        let lane = &self.v[r * n..(r + 1) * n];
        for ((o, &v), &thr) in out.iter_mut().zip(lane).zip(&self.means) {
            *o = v > thr;
        }
    }

    /// Sets every replica's spike flags from the most recent step into
    /// bit `lane` of `words`, **replica-major** (`words[r * neurons() +
    /// i]`, bit set ⇒ spiked), a bit-sliced sample block whose lane is
    /// clear.
    ///
    /// Spikes are a pure readout (`V > threshold`) of the membranes, so
    /// they are computed on demand here instead of on every step, equal
    /// to what a per-step readout would record.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != neurons() * replicas()` or `lane >= 64`.
    pub fn spike_lane_into(&self, lane: usize, words: &mut [u64]) {
        let n = self.neurons();
        assert_eq!(words.len(), n * self.replicas(), "spike word buffer length");
        assert!(lane < 64, "lane out of range");
        for (lane_words, v_lane) in words.chunks_exact_mut(n).zip(self.v.chunks_exact(n)) {
            for ((w, &v), &thr) in lane_words.iter_mut().zip(v_lane).zip(&self.means) {
                *w |= u64::from(v > thr) << lane;
            }
        }
    }

    /// Advances every replica one time step.
    #[inline]
    pub fn step(&mut self) {
        for (pool, state) in self.pools.iter_mut().zip(self.states.iter_mut()) {
            state.copy_from(pool.step());
        }
        let decay = self.params.decay();
        let gain = self.params.input_gain();
        // Fused fast path: when the plan memoizes per-pattern current rows
        // (the paper's SDP rank), read the currents in place — no
        // intermediate buffer is written at all. Availability is plan-wide
        // (state-independent), so probing one replica decides for all.
        if self
            .weights
            .memoized_row(&self.plan, &self.states[0])
            .is_some()
        {
            let n = self.means.len();
            for (r, state) in self.states.iter().enumerate() {
                let row = self
                    .weights
                    .memoized_row(&self.plan, state)
                    .expect("memoized_row availability is state-independent");
                let lane = &mut self.v[r * n..(r + 1) * n];
                for (v, &i_in) in lane.iter_mut().zip(row) {
                    *v = decay * *v + gain * i_in;
                }
            }
            return;
        }
        self.weights
            .accumulate_replicas(&mut self.plan, &self.states, &mut self.current);
        // The threshold readout is deferred to the readers
        // (`spike_lane_into`): it never feeds back into the dynamics.
        for (v, &i_in) in self.v.iter_mut().zip(&self.current) {
            *v = decay * *v + gain * i_in;
        }
    }

    /// Advances every replica `k` time steps.
    pub fn step_many(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snc_devices::DeviceModel;
    use snc_linalg::DMatrix;

    /// Lane independence: every lane of a 7-wide batch — membranes and
    /// spikes, also through the bit-sliced readout — is bit for bit the
    /// one-seed batch's with the same seed. The one-seed batches step one
    /// after the other through the scalar kernel, the sequential
    /// reference.
    fn assert_batch_equals_sequential(spec: PoolSpec, weights: DenseWeights, steps: u64) {
        let seeds: Vec<u64> = (0..7u64).map(|i| 0xA5A5 + i * 31).collect();
        let params = LifParams::default();
        let mut batch = ReplicaBatch::new(spec.clone(), &seeds, weights.clone(), params);
        let mut ones: Vec<ReplicaBatch> = seeds
            .iter()
            .map(|&s| ReplicaBatch::new(spec.clone(), &[s], weights.clone(), params))
            .collect();
        let n = batch.neurons();
        let mut spikes = vec![false; n];
        let mut one_spikes = vec![false; n];
        let mut words = vec![0u64; n * seeds.len()];
        for t in 0..steps {
            batch.step();
            // The bit-sliced readout carries the same flags in its lane.
            let lane = (t % 64) as usize;
            words.fill(0);
            batch.spike_lane_into(lane, &mut words);
            for (r, one) in ones.iter_mut().enumerate() {
                one.step();
                for i in 0..n {
                    assert_eq!(
                        one.potential(i, 0).to_bits(),
                        batch.potential(i, r).to_bits(),
                        "t={t} replica={r} neuron={i}"
                    );
                }
                one.spiked_into(0, &mut one_spikes);
                batch.spiked_into(r, &mut spikes);
                assert_eq!(one_spikes, spikes, "t={t} replica={r}");
                let lane_spikes: Vec<bool> = words[r * n..(r + 1) * n]
                    .iter()
                    .map(|&w| {
                        assert_eq!(w & !(1 << lane), 0, "t={t}: only lane {lane} is set");
                        w != 0
                    })
                    .collect();
                assert_eq!(lane_spikes, spikes, "t={t} replica={r} lane {lane}");
            }
        }
    }

    #[test]
    fn dense_batch_matches_sequential_networks() {
        // SDP-rank-style dense weights (pattern-table kernel path).
        let m = DMatrix::from_fn(9, 4, |i, a| (i as f64 + 1.0) * 0.1 - a as f64 * 0.07);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 4);
        assert_batch_equals_sequential(spec, w, 120);
    }

    #[test]
    fn wide_dense_batch_matches_sequential_networks() {
        // More devices than the pattern-table cap (column-scan path).
        let m = DMatrix::from_fn(5, 9, |i, a| ((i * 9 + a) as f64).sin());
        let w = DenseWeights::from_matrix_scaled(&m, 0.5);
        let spec = PoolSpec::uniform(DeviceModel::biased(0.3).unwrap(), 9);
        assert_batch_equals_sequential(spec, w, 80);
    }

    #[test]
    fn batch_accessors() {
        let m = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 2);
        let batch = ReplicaBatch::new(spec, &[1, 2, 3], w, LifParams::default());
        assert_eq!(batch.replicas(), 3);
        assert_eq!(batch.neurons(), 2);
        assert_eq!(batch.devices(), 2);
        assert_eq!(batch.means().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_seed_list_panics() {
        let m = DMatrix::from_rows(&[&[1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 1);
        let _ = ReplicaBatch::new(spec, &[], w, LifParams::default());
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
