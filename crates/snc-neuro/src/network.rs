//! The LIF-Trevisan two-stage network (Fig. 2).
//!
//! Stage 1 is the shared circuit motif — a pool of stochastic devices
//! feeding a LIF population through the Trevisan weight matrix, run on a
//! [`ReplicaBatch`] with thresholds at the analytic stationary means.
//! [`BatchedTwoStageNetwork`] adds the second stage: one readout neuron
//! per replica whose incoming weight vector is trained online with Oja's
//! anti-Hebbian rule. The neuron's input current `y = w·x` is what
//! [`BatchedTwoStageNetwork::step`] returns. Its membrane is not
//! integrated: "the output of this Stage-2 neuron is discarded; what
//! matters is the weight vector w" (§IV.B).
//!
//! Replicas are independent seeded copies of one circuit; a one-seed
//! batch is the single circuit.

use crate::lif::LifParams;
use crate::parallel::ReplicaBatch;
use crate::plasticity::{LearningRate, OjaMinor};
use crate::synapse::{CscWeights, InputWeights};
use crate::theory;
use snc_devices::{CommonCause, DeviceModel, PoolSpec};
use snc_graph::Graph;
use snc_linalg::vector;

/// Configuration for the LIF-Trevisan two-stage network.
#[derive(Clone, Copy, Debug)]
pub struct TwoStageConfig {
    /// Stage-1 membrane parameters.
    pub lif: LifParams,
    /// Learning-rate schedule for the anti-Hebbian rule.
    pub learning_rate: LearningRate,
    /// Apply a plasticity update every this many time steps (≥ 1).
    /// Spacing updates by about a membrane time constant decorrelates the
    /// plasticity samples.
    pub plasticity_interval: u64,
    /// Scale of the device→neuron weights (the paper: only ratios matter).
    pub weight_scale: f64,
}

impl Default for TwoStageConfig {
    fn default() -> Self {
        Self {
            lif: LifParams::default(),
            learning_rate: LearningRate::Decay {
                eta0: 0.05,
                t0: 20_000.0,
            },
            plasticity_interval: 10,
            weight_scale: 1.0,
        }
    }
}

/// The plasticity-signal attenuation for a two-stage configuration.
///
/// Auto-gain: Oja's minor-component rule is stable only when the
/// input covariance spectrum lies strictly below 1 (the radial
/// direction of the flow is stable iff λ < 1, and components in
/// eigendirections with λ > 1 self-amplify). The centered membranes
/// have Cov = κ·scale²·M², and the Trevisan matrix obeys the
/// deterministic bound ‖M‖₂ ≤ 2, so a gain of √0.9 / (2·scale·√κ)
/// pins λ_max(Cov of the plasticity signal) ≤ 0.9 — stable with no
/// spectrum estimation, exactly the kind of fixed analog
/// attenuation a hardware implementation would bake in.
fn plasticity_gain(config: &TwoStageConfig) -> f64 {
    let kappa = theory::kappa(&config.lif, 0.5).max(1e-300);
    0.9f64.sqrt() / (2.0 * config.weight_scale.abs().max(1e-300) * kappa.sqrt())
}

/// Deterministic random unit start for one replica's plastic vector; a
/// pure function of `(n, seed)`, so a replica's start does not depend on
/// the batch it is in.
fn initial_readout_weights(n: usize, seed: u64) -> Vec<f64> {
    use snc_devices::{Rng64, Xoshiro256pp};
    let mut rng = Xoshiro256pp::new(seed ^ 0x0DA2);
    let mut w: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
    if vector::normalize(&mut w) == 0.0 {
        w[0] = 1.0;
    }
    w
}

/// Synaptic saturation guard: physical weights cannot grow without
/// bound, so clamp a (rare, transient) runaway back to unit norm,
/// and restart from a fixed direction on numerical wipe-out.
fn saturation_guard(w: &mut [f64]) {
    let norm2 = vector::norm_sq(w);
    if !norm2.is_finite() {
        for (i, wi) in w.iter_mut().enumerate() {
            *wi = if i == 0 { 1.0 } else { 0.0 };
        }
    } else if norm2 > 4.0 {
        vector::scale(w, 1.0 / norm2.sqrt());
    }
}

/// `R` replicas of the LIF-Trevisan two-stage circuit advanced in
/// lock-step, structure-of-arrays.
///
/// Stage 1 (devices → Trevisan weights → LIF membranes) runs on a
/// [`ReplicaBatch`], so the sparse weight matrix is traversed once per time
/// step for all replicas. Stage 2 keeps the plastic readout vectors
/// replica-major (`w[r·n ..][..n]`) and applies the Oja anti-Hebbian update
/// to every replica in one SoA pass
/// ([`OjaMinor::update_replicas`]).
///
/// Replicas are independent: replica `r`'s trajectory — membranes,
/// plasticity signal, readout weight vector, stage-2 input currents — is bit
/// for bit that of a one-seed batch built from the same spec with seed
/// `seeds[r]`, so batching changes the schedule, never the numbers. A
/// one-seed batch steps stage 1 through the scalar
/// [`InputWeights::accumulate_words`] kernel, so it is an independent
/// reference for the multi-replica kernels; the lane tests in this module
/// pin the equivalence.
///
/// # Examples
///
/// ```
/// use snc_graph::generators::structured::cycle;
/// use snc_neuro::{BatchedTwoStageNetwork, TwoStageConfig};
///
/// let g = cycle(8);
/// let mut batch = BatchedTwoStageNetwork::new(&g, &[1, 2, 3], TwoStageConfig::default());
/// batch.run_updates(10);
/// assert_eq!((batch.replicas(), batch.n(), batch.updates()), (3, 8, 10));
/// // Replica 2's plastic readout vector; its signs are the cut hypothesis.
/// assert_eq!(batch.readout_weights(2).len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct BatchedTwoStageNetwork {
    stage1: ReplicaBatch<CscWeights>,
    /// Plastic readout vectors, replica-major: `w[r * n + i]`.
    readout_weights: Vec<f64>,
    learning_rate: LearningRate,
    plasticity_interval: u64,
    /// Plasticity-signal scratch, same layout as `readout_weights`.
    centered: Vec<f64>,
    /// Stage-2 input currents `y = w·x`, one per replica.
    ys: Vec<f64>,
    gain: f64,
    steps: u64,
    updates: u64,
}

impl BatchedTwoStageNetwork {
    /// Builds one replica per seed for a graph with fair-coin devices.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(graph: &Graph, seeds: &[u64], config: TwoStageConfig) -> Self {
        let weights = CscWeights::trevisan(graph, config.weight_scale);
        Self::from_weights(weights, DeviceModel::fair(), None, seeds, config)
    }

    /// Builds the replicas from an explicit square synaptic weight matrix
    /// whose spectral norm is at most `2·weight_scale` — the contract the
    /// plasticity auto-gain relies on — with a custom device model and
    /// optional common-cause correlation. Both Trevisan constructors
    /// ([`CscWeights::trevisan`], [`CscWeights::trevisan_weighted`])
    /// satisfy it by construction.
    ///
    /// # Panics
    ///
    /// Panics if the weight matrix is not square or `seeds` is empty.
    pub fn from_weights(
        weights: CscWeights,
        model: DeviceModel,
        common_cause: Option<CommonCause>,
        seeds: &[u64],
        config: TwoStageConfig,
    ) -> Self {
        assert_eq!(
            weights.neurons(),
            weights.devices(),
            "two-stage circuit needs one device per neuron"
        );
        let n = weights.neurons();
        let replicas = seeds.len();
        let mut spec = PoolSpec::uniform(model, n);
        if let Some(cc) = common_cause {
            spec = spec.with_common_cause(cc);
        }
        let stage1 = ReplicaBatch::new(spec, seeds, weights, config.lif);
        let gain = plasticity_gain(&config);
        let mut readout_weights = Vec::with_capacity(n * replicas);
        for &seed in seeds {
            readout_weights.extend(initial_readout_weights(n, seed));
        }
        Self {
            stage1,
            readout_weights,
            learning_rate: config.learning_rate,
            plasticity_interval: config.plasticity_interval.max(1),
            centered: vec![0.0; n * replicas],
            ys: vec![0.0; replicas],
            gain,
            steps: 0,
            updates: 0,
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.ys.len()
    }

    /// Number of graph vertices / stage-1 neurons per replica.
    pub fn n(&self) -> usize {
        self.stage1.neurons()
    }

    /// Lock-steps simulated so far (shared by all replicas).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Plasticity updates applied so far (shared by all replicas).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Replica `r`'s plastic readout weight vector — sign-thresholding it
    /// gives that replica's current cut hypothesis.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn readout_weights(&self, r: usize) -> &[f64] {
        let n = self.n();
        assert!(r < self.replicas(), "replica index out of range");
        &self.readout_weights[r * n..(r + 1) * n]
    }

    /// Advances every replica one time step; applies plasticity on
    /// schedule. Returns the stage-2 input currents `y = w·x` (one per
    /// replica) when an update happened.
    pub fn step(&mut self) -> Option<&[f64]> {
        self.stage1.step();
        self.steps += 1;
        if !self.steps.is_multiple_of(self.plasticity_interval) {
            return None;
        }
        let n = self.n();
        // Layout-neutral bulk readout; each element is one subtraction,
        // `V − mean`.
        self.stage1.centered_into(&mut self.centered);
        vector::scale(&mut self.centered, self.gain);
        // Lock-stepped replicas share the update index, hence the rate.
        let eta = self.learning_rate.at(self.updates);
        OjaMinor.update_replicas(&mut self.readout_weights, &self.centered, eta, &mut self.ys);
        self.updates += 1;
        for lane in self.readout_weights.chunks_exact_mut(n) {
            saturation_guard(lane);
        }
        Some(&self.ys)
    }

    /// Runs until `updates` plasticity updates have been applied to every
    /// replica.
    pub fn run_updates(&mut self, updates: u64) {
        let target = self.updates + updates;
        while self.updates < target {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synapse::DenseWeights;
    use snc_graph::generators::structured::{complete_bipartite, cycle};
    use snc_linalg::DMatrix;

    /// One replica of the stage-1 motif on fair devices.
    fn motif(devices: usize, seed: u64, w: DenseWeights) -> ReplicaBatch<DenseWeights> {
        let spec = PoolSpec::uniform(DeviceModel::fair(), devices);
        ReplicaBatch::new(spec, &[seed], w, LifParams::default())
    }

    #[test]
    fn network_dimensions_and_means() {
        let w =
            DenseWeights::from_matrix_scaled(&DMatrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]), 1.0);
        let net = motif(2, 1, w);
        assert_eq!(net.neurons(), 2);
        assert_eq!(net.devices(), 2);
        // mean = R · p · row_sum = 1 · 0.5 · rowsum.
        assert!((net.means()[0] - 0.5).abs() < 1e-12);
        assert!((net.means()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn spike_rate_is_half_at_mean_threshold() {
        // Threshold at the stationary mean ⇒ spike probability ≈ 1/2.
        let w = DenseWeights::from_matrix_scaled(
            &DMatrix::from_rows(&[&[1.0, 0.3, -0.4], &[-0.2, 0.8, 0.1]]),
            1.0,
        );
        let mut net = motif(3, 2, w);
        net.step_many(500); // warmup
        let mut counts = [0u32; 2];
        let mut s = [false; 2];
        let steps = 20_000;
        for _ in 0..steps {
            // Space samples a decorrelation interval apart.
            net.step_many(11);
            net.spiked_into(0, &mut s);
            counts[0] += s[0] as u32;
            counts[1] += s[1] as u32;
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / steps as f64;
            assert!((rate - 0.5).abs() < 0.05, "neuron {i} rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "pool size")]
    fn mismatched_pool_panics() {
        let w = DenseWeights::from_matrix_scaled(&DMatrix::from_rows(&[&[1.0, 0.0]]), 1.0);
        let _ = motif(3, 1, w);
    }

    #[test]
    fn two_stage_learns_bipartite_cut() {
        // On K_{3,3} the Trevisan minimum eigenvector separates the parts;
        // the learned weight vector's signs must match the bipartition.
        let g = complete_bipartite(3, 3);
        let mut net = BatchedTwoStageNetwork::new(&g, &[7], TwoStageConfig::default());
        net.run_updates(30_000);
        let w = net.readout_weights(0);
        let side0: Vec<bool> = w.iter().map(|&x| x > 0.0).collect();
        // All of part A on one side, part B on the other.
        assert_eq!(side0[0], side0[1]);
        assert_eq!(side0[0], side0[2]);
        assert_eq!(side0[3], side0[4]);
        assert_eq!(side0[3], side0[5]);
        assert_ne!(side0[0], side0[3], "w = {w:?}");
        // Norm stabilized near 1.
        assert!(
            (vector::norm(w) - 1.0).abs() < 0.2,
            "norm={}",
            vector::norm(w)
        );
    }

    #[test]
    fn two_stage_bookkeeping() {
        let g = cycle(6);
        let mut net = BatchedTwoStageNetwork::new(&g, &[3], TwoStageConfig::default());
        assert_eq!(net.n(), 6);
        net.run_updates(5);
        assert_eq!(net.updates(), 5);
        assert_eq!(net.steps(), 5 * 10); // default plasticity_interval = 10
    }

    #[test]
    fn two_stage_deterministic() {
        let g = cycle(8);
        let mut a = BatchedTwoStageNetwork::new(&g, &[11], TwoStageConfig::default());
        let mut b = BatchedTwoStageNetwork::new(&g, &[11], TwoStageConfig::default());
        a.run_updates(100);
        b.run_updates(100);
        assert_eq!(a.readout_weights(0), b.readout_weights(0));
    }

    /// Lane independence: every replica's full trajectory in an R-wide
    /// batch — stage-2 input currents and readout weight vectors at every
    /// plasticity update — is bit for bit the one-seed batch's with the
    /// same seed. The one-seed batches step one after the other through
    /// the scalar kernel, the sequential reference.
    fn assert_batched_two_stage_equals_sequential(cfg: TwoStageConfig, seeds: &[u64], steps: u64) {
        let g = gnp_like_graph();
        let mut batch = BatchedTwoStageNetwork::new(&g, seeds, cfg);
        let mut nets: Vec<BatchedTwoStageNetwork> = seeds
            .iter()
            .map(|&s| BatchedTwoStageNetwork::new(&g, &[s], cfg))
            .collect();
        for t in 0..steps {
            let ys = batch.step().map(<[f64]>::to_vec);
            for (r, net) in nets.iter_mut().enumerate() {
                let y = net.step().map(|y| y[0]);
                match (&ys, y) {
                    (Some(ys), Some(y)) => {
                        assert_eq!(y.to_bits(), ys[r].to_bits(), "y at t={t} r={r}")
                    }
                    (None, None) => {}
                    _ => panic!("plasticity schedule diverged at t={t} r={r}"),
                }
                for (i, (a, b)) in batch
                    .readout_weights(r)
                    .iter()
                    .zip(net.readout_weights(0))
                    .enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "w at t={t} r={r} i={i}");
                }
            }
        }
        assert_eq!(batch.steps(), steps);
        assert_eq!(batch.updates(), nets[0].updates());
    }

    /// A small irregular graph (cycle + chords) so degrees differ.
    fn gnp_like_graph() -> Graph {
        let mut edges: Vec<(u32, u32)> = (0..9u32).map(|i| (i, (i + 1) % 9)).collect();
        edges.extend([(0, 4), (2, 7), (3, 8)]);
        Graph::from_edges(9, &edges).unwrap()
    }

    #[test]
    fn batched_two_stage_matches_sequential_no_reset() {
        let seeds: Vec<u64> = (0..5u64).map(|i| 0x2757 + 41 * i).collect();
        assert_batched_two_stage_equals_sequential(TwoStageConfig::default(), &seeds, 120);
    }

    #[test]
    fn batched_two_stage_single_replica_degenerates() {
        // R = 2 is the narrowest width on the masked multi-replica kernel;
        // each of its lanes must be exactly the one-replica scalar path.
        assert_batched_two_stage_equals_sequential(TwoStageConfig::default(), &[42, 43], 80);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn batched_two_stage_empty_seeds_panics() {
        let g = cycle(4);
        let _ = BatchedTwoStageNetwork::new(&g, &[], TwoStageConfig::default());
    }
}
