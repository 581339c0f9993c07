//! Batched replica execution.
//!
//! Sampling from a stochastic circuit is embarrassingly parallel: replicas
//! of the same network with different device seeds explore independent
//! sample streams (the hardware analogy is simply more circuits).
//! [`ReplicaBatch`] advances `R` replicas of the *same* circuit in
//! lock-step on one core, structure-of-arrays, so each traversal of the
//! weight matrix serves every replica at once. Replicas are independent:
//! lane `r` of an `R`-wide batch is bit for bit the one-seed batch built
//! with `seeds[r]` — batching changes the schedule, never the numbers.
//!
//! A thread pool of `ReplicaBatch`es is the full replicas = threads ×
//! batch-width layout ([`default_threads`] sizes the pool).

use crate::lif::{LifParams, Reset};
use crate::synapse::BatchWeights;
use crate::theory;
use snc_devices::{ActivityWords, DevicePool, PoolSpec};

/// A sensible default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `R` replicas of one device-driven circuit advanced in lock-step,
/// structure-of-arrays.
///
/// Every replica shares the same weight matrix, membrane parameters, and
/// thresholds; only the device seeds differ. Membranes are stored in the
/// weight type's batched layout ([`BatchWeights::INTERLEAVED`]):
/// replica-major (`v[r * n + i]`, dense weights) or neuron-major
/// interleaved (`v[i * R + r]`, CSC weights). Either way, one pass over
/// the weight matrix per time step feeds all replicas
/// ([`BatchWeights::accumulate_replicas`]) and the fused decay–accumulate
/// membrane update runs over one contiguous buffer.
///
/// Replicas are independent: lane `r`'s trajectory is bit for bit that
/// of a one-seed batch with seed `seeds[r]` — the per-replica RNG
/// streams, the ascending-column accumulation order, and the membrane
/// update expression are all preserved exactly. A one-seed batch steps
/// through the scalar [`InputWeights::accumulate_words`](crate::InputWeights::accumulate_words)
/// kernel (or a pattern row it computed), so it is an independent
/// reference for the multi-replica kernels.
///
/// # Examples
///
/// ```
/// use snc_devices::{DeviceModel, PoolSpec};
/// use snc_linalg::DMatrix;
/// use snc_neuro::parallel::ReplicaBatch;
/// use snc_neuro::{DenseWeights, LifParams, Reset};
///
/// // 3 neurons driven by 2 devices, 4 replicas with seeds 0..4.
/// let m = DMatrix::from_rows(&[&[1.0, 0.2], &[-0.4, 0.9], &[0.3, 0.3]]);
/// let weights = DenseWeights::from_matrix_scaled(&m, 1.0);
/// let spec = PoolSpec::uniform(DeviceModel::fair(), 2);
/// let mut batch = ReplicaBatch::new(spec, &[0, 1, 2, 3], weights,
///                                   LifParams::default(), Reset::None);
/// batch.step_many(100);
/// assert_eq!((batch.replicas(), batch.neurons()), (4, 3));
/// // Read replica 2's spike pattern.
/// let mut spikes = vec![false; 3];
/// batch.spiked_into(2, &mut spikes);
/// ```
#[derive(Clone, Debug)]
pub struct ReplicaBatch<W: BatchWeights> {
    pools: Vec<DevicePool>,
    weights: W,
    plan: W::Plan,
    params: LifParams,
    reset: Reset,
    /// Per-neuron thresholds (= analytic stationary means), shared by all
    /// replicas.
    means: Vec<f64>,
    /// Membranes, in the weight type's batched layout
    /// ([`BatchWeights::INTERLEAVED`]): `v[r * neurons + i]`
    /// (replica-major) or `v[i * replicas + r]` (interleaved).
    v: Vec<f64>,
    /// Synaptic currents, same layout as `v`.
    current: Vec<f64>,
    /// Spike flags recorded during the step (reset modes only, where the
    /// pre-reset membrane is not recoverable afterwards); same layout.
    spiked: Vec<bool>,
    /// Per-replica packed device states for the current step.
    states: Vec<ActivityWords>,
    steps: u64,
}

impl<W: BatchWeights> ReplicaBatch<W> {
    /// Builds `seeds.len()` replicas of the circuit motif: pools from the
    /// shared `spec` (one per seed), thresholds at the analytic stationary
    /// means, membranes starting at those means (the circuit begins at
    /// statistical equilibrium).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or the spec size differs from the weight
    /// matrix's device count.
    pub fn new(spec: PoolSpec, seeds: &[u64], weights: W, params: LifParams, reset: Reset) -> Self {
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
        let mut v = vec![0.0; n * replicas];
        if W::INTERLEAVED {
            for (group, &m) in v.chunks_exact_mut(replicas).zip(&means) {
                group.fill(m);
            }
        } else {
            for lane in v.chunks_exact_mut(n) {
                lane.copy_from_slice(&means);
            }
        }
        let states = vec![ActivityWords::zeros(spec.len()); replicas];
        let plan = weights.batch_plan();
        Self {
            pools,
            weights,
            plan,
            params,
            reset,
            means,
            v,
            current: vec![0.0; n * replicas],
            spiked: vec![false; n * replicas],
            states,
            steps: 0,
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

    /// Lock-steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The analytic stationary means (= spike thresholds), shared by all
    /// replicas.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The shared weight matrix.
    pub fn weights(&self) -> &W {
        &self.weights
    }

    /// Raw membrane storage in the weight type's batched layout:
    /// `potentials()[r * neurons() + i]` when
    /// [`BatchWeights::INTERLEAVED`] is false, `potentials()[i *
    /// replicas() + r]` when it is true. Prefer
    /// [`ReplicaBatch::potential`] / [`ReplicaBatch::centered_into`],
    /// which hide the layout.
    pub fn potentials(&self) -> &[f64] {
        &self.v
    }

    /// The membrane potential of neuron `i` in replica `r`.
    pub fn potential(&self, i: usize, r: usize) -> f64 {
        assert!(r < self.replicas(), "replica index out of range");
        assert!(i < self.neurons(), "neuron index out of range");
        self.v[self.index(i, r)]
    }

    /// The storage index of neuron `i` in replica `r` for the active
    /// layout.
    #[inline]
    fn index(&self, i: usize, r: usize) -> usize {
        if W::INTERLEAVED {
            i * self.replicas() + r
        } else {
            r * self.neurons() + i
        }
    }

    /// Writes every replica's mean-centered membrane potentials into
    /// `out`, **replica-major** (`out[r * neurons() + i] = V_{i,r} −
    /// means[i]`) regardless of the internal layout — the layout-neutral
    /// bulk readout (each element is the exact
    /// `LifPopulation::centered_into` expression).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != neurons() * replicas()`.
    pub fn centered_into(&self, out: &mut [f64]) {
        let n = self.neurons();
        let replicas = self.replicas();
        assert_eq!(out.len(), n * replicas, "centered buffer length");
        if W::INTERLEAVED {
            for (i, (group, &m)) in self.v.chunks_exact(replicas).zip(&self.means).enumerate() {
                for (r, &vv) in group.iter().enumerate() {
                    out[r * n + i] = vv - m;
                }
            }
        } else {
            for (o_lane, v_lane) in out.chunks_exact_mut(n).zip(self.v.chunks_exact(n)) {
                for ((o, &vv), &m) in o_lane.iter_mut().zip(v_lane).zip(&self.means) {
                    *o = vv - m;
                }
            }
        }
    }

    /// Writes replica `r`'s spike flags from the most recent step into
    /// `out`.
    ///
    /// With [`Reset::None`] spikes are a pure readout (`V > threshold`)
    /// of the membranes, so they are computed on demand here instead of
    /// on every step, with the same readout at every step as
    /// `LifPopulation::step`. With [`Reset::ToValue`] the pre-reset
    /// membrane is gone after the step, so the flags recorded during the
    /// step are returned — again exactly the `LifPopulation::step`
    /// readout.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != neurons()` or `r` is out of range.
    pub fn spiked_into(&self, r: usize, out: &mut [bool]) {
        let n = self.neurons();
        let replicas = self.replicas();
        assert!(r < replicas, "replica index out of range");
        assert_eq!(out.len(), n, "spike buffer length");
        match self.reset {
            Reset::None if W::INTERLEAVED => {
                for ((o, group), &thr) in out
                    .iter_mut()
                    .zip(self.v.chunks_exact(replicas))
                    .zip(&self.means)
                {
                    *o = group[r] > thr;
                }
            }
            Reset::None => {
                let lane = &self.v[r * n..(r + 1) * n];
                for ((o, &v), &thr) in out.iter_mut().zip(lane).zip(&self.means) {
                    *o = v > thr;
                }
            }
            Reset::ToValue(_) if W::INTERLEAVED => {
                for (o, group) in out.iter_mut().zip(self.spiked.chunks_exact(replicas)) {
                    *o = group[r];
                }
            }
            Reset::ToValue(_) => {
                out.copy_from_slice(&self.spiked[r * n..(r + 1) * n]);
            }
        }
    }

    /// Sets every replica's spike flags from the most recent step into
    /// bit `lane` of `words`, **replica-major** (`words[r * neurons() +
    /// i]`, bit set ⇒ spiked): the same flags as
    /// [`ReplicaBatch::spiked_into`], written into a bit-sliced sample
    /// block whose lane is clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != neurons() * replicas()` or `lane >= 64`.
    pub fn spike_lane_into(&self, lane: usize, words: &mut [u64]) {
        let n = self.neurons();
        let replicas = self.replicas();
        assert_eq!(words.len(), n * replicas, "spike word buffer length");
        assert!(lane < 64, "lane out of range");
        for r in 0..replicas {
            let lane_words = &mut words[r * n..(r + 1) * n];
            match self.reset {
                Reset::None => {
                    for (i, (w, &thr)) in lane_words.iter_mut().zip(&self.means).enumerate() {
                        *w |= u64::from(self.v[self.index(i, r)] > thr) << lane;
                    }
                }
                Reset::ToValue(_) => {
                    for (i, w) in lane_words.iter_mut().enumerate() {
                        *w |= u64::from(self.spiked[self.index(i, r)]) << lane;
                    }
                }
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
        // Fused fast path: when the kernel memoizes per-pattern current
        // rows (dense weights at SDP rank), read the currents in place —
        // no intermediate buffer is written at all. Availability is
        // plan-wide (state-independent), so probing one replica decides
        // for all. Only valid without reset feedback, and only in the
        // replica-major layout memoized rows are stored in.
        if !W::INTERLEAVED
            && matches!(self.reset, Reset::None)
            && self
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
            self.steps += 1;
            return;
        }
        self.weights
            .accumulate_replicas(&mut self.plan, &self.states, &mut self.current);
        match self.reset {
            Reset::None => {
                // Same update expression as `LifPopulation::step`; the
                // threshold readout is deferred to `spiked_into` because
                // without reset it cannot feed back into the dynamics.
                for (v, &i_in) in self.v.iter_mut().zip(&self.current) {
                    *v = decay * *v + gain * i_in;
                }
            }
            Reset::ToValue(rv) if W::INTERLEAVED => {
                // Interleaved: one R-lane group per neuron, all sharing
                // that neuron's threshold.
                let replicas = self.pools.len();
                for ((group, cur), (spk_group, &thr)) in self
                    .v
                    .chunks_exact_mut(replicas)
                    .zip(self.current.chunks_exact(replicas))
                    .zip(self.spiked.chunks_exact_mut(replicas).zip(&self.means))
                {
                    for ((v, &i_in), spk) in group.iter_mut().zip(cur).zip(spk_group) {
                        let mut vv = decay * *v + gain * i_in;
                        *spk = vv > thr;
                        if *spk {
                            vv = rv;
                        }
                        *v = vv;
                    }
                }
            }
            Reset::ToValue(rv) => {
                let n = self.means.len();
                for ((lane, cur), spk_lane) in self
                    .v
                    .chunks_exact_mut(n)
                    .zip(self.current.chunks_exact(n))
                    .zip(self.spiked.chunks_exact_mut(n))
                {
                    for (((v, &i_in), &thr), spk) in
                        lane.iter_mut().zip(cur).zip(&self.means).zip(spk_lane)
                    {
                        let mut vv = decay * *v + gain * i_in;
                        // Record the pre-reset threshold crossing: this is
                        // the spike flag `LifPopulation::step` reports.
                        *spk = vv > thr;
                        if *spk {
                            vv = rv;
                        }
                        *v = vv;
                    }
                }
            }
        }
        self.steps += 1;
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
    use crate::synapse::{CscWeights, DenseWeights, InputWeights};
    use snc_devices::DeviceModel;
    use snc_graph::generators::structured::cycle;
    use snc_linalg::DMatrix;

    /// Lane independence: every lane of a 7-wide batch — membranes and
    /// spikes, also through the bit-sliced readout — is bit for bit the
    /// one-seed batch's with the same seed. The one-seed batches step one
    /// after the other through the scalar kernel, the sequential
    /// reference.
    fn assert_batch_equals_sequential<W>(spec: PoolSpec, weights: W, reset: Reset, steps: u64)
    where
        W: BatchWeights + Clone,
    {
        let seeds: Vec<u64> = (0..7u64).map(|i| 0xA5A5 + i * 31).collect();
        let params = LifParams::default();
        let mut batch = ReplicaBatch::new(spec.clone(), &seeds, weights.clone(), params, reset);
        let mut ones: Vec<ReplicaBatch<W>> = seeds
            .iter()
            .map(|&s| ReplicaBatch::new(spec.clone(), &[s], weights.clone(), params, reset))
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
        assert_eq!(batch.steps(), steps);
    }

    #[test]
    fn dense_batch_matches_sequential_networks() {
        // SDP-rank-style dense weights (pattern-table kernel path).
        let m = DMatrix::from_fn(9, 4, |i, a| (i as f64 + 1.0) * 0.1 - a as f64 * 0.07);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 4);
        assert_batch_equals_sequential(spec, w, Reset::None, 120);
    }

    #[test]
    fn wide_dense_batch_matches_sequential_networks() {
        // More devices than the pattern-table cap (column-scan path).
        let m = DMatrix::from_fn(5, 9, |i, a| ((i * 9 + a) as f64).sin());
        let w = DenseWeights::from_matrix_scaled(&m, 0.5);
        let spec = PoolSpec::uniform(DeviceModel::biased(0.3).unwrap(), 9);
        assert_batch_equals_sequential(spec, w, Reset::None, 80);
    }

    #[test]
    fn csc_batch_matches_sequential_networks() {
        let g = cycle(11);
        let w = CscWeights::trevisan(&g, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 11);
        assert_batch_equals_sequential(spec, w, Reset::None, 100);
    }

    #[test]
    fn reset_to_value_batch_matches_sequential_networks() {
        // With reset, spikes feed back into the dynamics; the batched
        // stepper must threshold every step, like the one-seed one.
        let m = DMatrix::from_fn(6, 3, |i, a| 0.4 + (i + a) as f64 * 0.05);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 3);
        assert_batch_equals_sequential(spec, w, Reset::ToValue(0.0), 150);
    }

    #[test]
    fn batch_accessors() {
        let m = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 2);
        let batch = ReplicaBatch::new(spec, &[1, 2, 3], w, LifParams::default(), Reset::None);
        assert_eq!(batch.replicas(), 3);
        assert_eq!(batch.neurons(), 2);
        assert_eq!(batch.devices(), 2);
        assert_eq!(batch.potentials().len(), 6);
        assert_eq!(batch.means().len(), 2);
        assert_eq!(batch.weights().neurons(), 2);
        assert_eq!(batch.steps(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_seed_list_panics() {
        let m = DMatrix::from_rows(&[&[1.0]]);
        let w = DenseWeights::from_matrix_scaled(&m, 1.0);
        let spec = PoolSpec::uniform(DeviceModel::fair(), 1);
        let _ = ReplicaBatch::new(spec, &[], w, LifParams::default(), Reset::None);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
