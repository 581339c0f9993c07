//! The LIF-Trevisan circuit (Fig. 2, §IV.B).
//!
//! One stochastic device per vertex drives the LIF population through
//! weights proportional to the Trevisan matrix `M = I + D^{-1/2}AD^{-1/2}`.
//! The membrane covariance is then `κ·M²`, whose minimum eigenvector equals
//! that of `M` (M is PSD). A single readout neuron's incoming weight vector
//! `w`, trained with Oja's anti-Hebbian rule on the population activity,
//! converges to that eigenvector; thresholding `w` by sign is the Trevisan
//! cut. *"This circuit solves the MAXCUT problem entirely within the
//! circuit, without requiring any external preprocessing."*
//!
//! Each sample advances the circuit by a fixed number of plasticity
//! updates and reads the current weight vector — so the best-so-far
//! curves *improve over time as learning proceeds*, the characteristic
//! shape of the orange curves in Figs. 3–4.
//!
//! [`BatchedLifTrevisanCircuit`] is the one implementation: `R`
//! independent seeded replicas of the circuit, of which a one-seed batch
//! is the single circuit. On a weighted graph the synaptic program is the
//! weighted Trevisan matrix ([`BatchedLifTrevisanCircuit::from_weights`]).

use crate::sampling::{batched_best_traces, cuts_from_lane, set_lane_from_signs, BestTrace};
use snc_devices::{CommonCause, DeviceModel};
use snc_graph::{CutAssignment, Graph};
use snc_neuro::{BatchedTwoStageNetwork, CscWeights, TwoStageConfig};

/// Configuration of the LIF-Trevisan circuit sampler.
#[derive(Clone, Debug)]
pub struct LifTrevisanConfig {
    /// Two-stage network configuration (LIF params, learning rate, gain).
    pub network: TwoStageConfig,
    /// Plasticity updates applied per emitted cut sample.
    pub updates_per_sample: u64,
    /// Device model (fair coins in the paper's evaluation).
    pub device: DeviceModel,
    /// Optional cross-device correlation (robustness study).
    pub common_cause: Option<CommonCause>,
}

impl Default for LifTrevisanConfig {
    fn default() -> Self {
        Self {
            network: TwoStageConfig::default(),
            updates_per_sample: 1,
            device: DeviceModel::fair(),
            common_cause: None,
        }
    }
}

/// `R` LIF-Trevisan replicas advanced in lock-step, structure-of-arrays.
///
/// Each replica is an independent circuit (own device seed and plastic
/// readout vector, same graph and configuration), but all replicas share
/// one traversal of the sparse Trevisan weight matrix per time step and
/// one SoA Oja plasticity pass per update, via [`BatchedTwoStageNetwork`].
/// Replica `r`'s sample stream is bit-for-bit that of the one-seed batch
/// `BatchedLifTrevisanCircuit::new(graph, &[seeds[r]], cfg)` — batching
/// changes the schedule, never the samples — which the lane tests pin for
/// R ∈ {2, 3, 8, 16}.
///
/// # Examples
///
/// ```
/// use snc_graph::generators::structured::cycle;
/// use snc_maxcut::{log2_checkpoints, BatchedLifTrevisanCircuit, LifTrevisanConfig};
///
/// let g = cycle(10);
/// let mut batch = BatchedLifTrevisanCircuit::new(&g, &[1, 2, 3, 4], &LifTrevisanConfig::default());
/// assert_eq!((batch.replicas(), batch.n()), (4, 10));
/// // One best-so-far learning curve per replica on a shared sample grid.
/// let traces = batch.best_traces(&g, &log2_checkpoints(8));
/// assert_eq!(traces.len(), 4);
/// assert!(traces.iter().all(|t| t.final_best() <= g.m() as u64));
/// ```
#[derive(Clone, Debug)]
pub struct BatchedLifTrevisanCircuit {
    net: BatchedTwoStageNetwork,
    updates_per_sample: u64,
}

impl BatchedLifTrevisanCircuit {
    /// Builds one replica per seed for a graph.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(graph: &Graph, seeds: &[u64], cfg: &LifTrevisanConfig) -> Self {
        let weights = CscWeights::trevisan(graph, cfg.network.weight_scale);
        Self::from_weights(weights, seeds, cfg)
    }

    /// Builds one replica per seed on an explicit square synaptic program
    /// — a graph's Trevisan matrix at scale `cfg.network.weight_scale`,
    /// such as [`CscWeights::trevisan_weighted`] for a weighted graph with
    /// non-negative weights (see [`crate::MaxCutGraph::trevisan_weights`]).
    ///
    /// # Panics
    ///
    /// Panics if the weight matrix is not square or `seeds` is empty.
    pub fn from_weights(weights: CscWeights, seeds: &[u64], cfg: &LifTrevisanConfig) -> Self {
        let net = BatchedTwoStageNetwork::from_weights(
            weights,
            cfg.device.clone(),
            cfg.common_cause,
            seeds,
            cfg.network,
        );
        Self {
            net,
            updates_per_sample: cfg.updates_per_sample.max(1),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.net.replicas()
    }

    /// Number of vertices (= neurons = devices) per replica.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Total plasticity updates applied to every replica.
    pub fn updates(&self) -> u64 {
        self.net.updates()
    }

    /// Replica `r`'s current plastic weight vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn readout_weights(&self, r: usize) -> &[f64] {
        self.net.readout_weights(r)
    }

    /// Replica `r`'s current cut hypothesis without advancing time.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn current_cut(&self, r: usize) -> CutAssignment {
        CutAssignment::from_signs(self.net.readout_weights(r))
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        let (n, replicas) = (self.n(), self.replicas());
        cuts_from_lane(n, replicas, |lane, words| self.next_lane(lane, words))
    }

    /// Advances all replicas to the next sample and sets replica `r`'s
    /// cut (positive readout weight ⇒ `+1`) into bit `lane` of
    /// `words[r * n..(r + 1) * n]`, a bit-sliced block (see
    /// [`snc_graph::bitslice`]) whose lane is clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != n · replicas`.
    pub fn next_lane(&mut self, lane: usize, words: &mut [u64]) {
        let n = self.n();
        assert_eq!(words.len(), n * self.replicas(), "block length");
        self.net.run_updates(self.updates_per_sample);
        for r in 0..self.replicas() {
            let replica = &mut words[r * n..(r + 1) * n];
            set_lane_from_signs(replica, lane, self.net.readout_weights(r));
        }
    }

    /// Runs every replica against the shared checkpoint grid and returns
    /// one best-so-far trace per replica: trace `r` is
    /// [`crate::sample_best_trace`] over the one-seed batch for
    /// `seeds[r]`.
    ///
    /// Samples are drawn 64 at a time and scored by one bit-sliced pass
    /// over the edges per block ([`snc_graph::bitslice`]).
    ///
    /// # Panics
    ///
    /// Panics if `graph.n()` differs from the circuit size or
    /// `checkpoints` is not strictly ascending.
    pub fn best_traces(&mut self, graph: &Graph, checkpoints: &[u64]) -> Vec<BestTrace> {
        assert_eq!(graph.n(), self.n(), "graph/circuit size mismatch");
        let replicas = self.replicas();
        batched_best_traces(graph, checkpoints, replicas, |lane, words| {
            self.next_lane(lane, words)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use crate::trevisan::{solve_trevisan, TrevisanConfig};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::{complete_bipartite, cycle};
    use snc_linalg::vector;

    /// One circuit: a one-seed batch.
    fn one_seed(g: &Graph, seed: u64, cfg: &LifTrevisanConfig) -> BatchedLifTrevisanCircuit {
        BatchedLifTrevisanCircuit::new(g, &[seed], cfg)
    }

    #[test]
    fn solves_bipartite_within_budget() {
        let g = complete_bipartite(3, 3);
        let mut circuit = one_seed(&g, 5, &LifTrevisanConfig::default());
        let trace = circuit.best_traces(&g, &log2_checkpoints(20_000)).remove(0);
        assert_eq!(trace.final_best(), 9, "trace={:?}", trace.best);
        assert_eq!(circuit.n(), 6);
    }

    #[test]
    fn performance_improves_with_learning() {
        // The characteristic LIF-TR shape: early samples are near-random,
        // late samples approach the spectral solution.
        let g = gnp(24, 0.3, 3).unwrap();
        let mut circuit = one_seed(&g, 7, &LifTrevisanConfig::default());
        let cp = log2_checkpoints(30_000);
        let trace = circuit.best_traces(&g, &cp).remove(0);
        let early = trace.best[2] as f64; // after 4 samples
        let late = trace.final_best() as f64;
        assert!(
            late > early,
            "no improvement: early={early} late={late} trace={:?}",
            trace.best
        );
        // Final cut must beat the random-cut expectation m/2.
        assert!(late > g.m() as f64 / 2.0);
    }

    #[test]
    fn converges_toward_software_spectral_cut() {
        let g = cycle(12); // bipartite ring: spectral cut = 12
        let software = solve_trevisan(&g, &TrevisanConfig::default()).unwrap();
        let mut circuit = one_seed(&g, 9, &LifTrevisanConfig::default());
        let trace = circuit.best_traces(&g, &log2_checkpoints(30_000)).remove(0);
        assert!(
            trace.final_best() >= software.value.saturating_sub(1),
            "circuit {} vs software {}",
            trace.final_best(),
            software.value
        );
        // The learned weight vector aligns with the software eigenvector.
        let align = vector::alignment(circuit.readout_weights(0), &software.eigenvector);
        assert!(align > 0.9, "alignment={align}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = cycle(8);
        let mut a = one_seed(&g, 11, &LifTrevisanConfig::default());
        let mut b = one_seed(&g, 11, &LifTrevisanConfig::default());
        for _ in 0..50 {
            assert_eq!(a.next_cuts(), b.next_cuts());
        }
        assert_eq!(a.updates(), 50);
    }

    #[test]
    fn updates_per_sample_respected() {
        let g = cycle(6);
        let cfg = LifTrevisanConfig {
            updates_per_sample: 5,
            ..LifTrevisanConfig::default()
        };
        let mut circuit = one_seed(&g, 1, &cfg);
        let _ = circuit.next_cuts();
        let _ = circuit.next_cuts();
        assert_eq!(circuit.updates(), 10);
    }

    /// Acceptance pin: every lane of an R-wide batch is bit-for-bit the
    /// one-seed batch's with the same seed — cuts and readout weights —
    /// for R ∈ {8, 16} on G(18, 0.3), and for R ∈ {2, 3, 8, 16} on
    /// G(150, 0.05), whose 150 devices span two full 64-device words and
    /// a partial one. The one-seed batches run the scalar synapse kernel,
    /// the sequential reference for the masked multi-replica kernel.
    #[test]
    fn batched_replicas_match_sequential_circuits() {
        let cfg = LifTrevisanConfig {
            updates_per_sample: 3,
            ..LifTrevisanConfig::default()
        };
        let small = gnp(18, 0.3, 21).unwrap();
        let sparse = gnp(150, 0.05, 0x150).unwrap();
        let cases = [(&small, &[8usize, 16][..]), (&sparse, &[2, 3, 8, 16][..])];
        for (g, widths) in cases {
            for &r in widths {
                assert_lanes_match_one_seed_batches(g, r, &cfg);
            }
        }
    }

    fn assert_lanes_match_one_seed_batches(g: &Graph, r: usize, cfg: &LifTrevisanConfig) {
        let n = g.n();
        let seeds: Vec<u64> = (0..r as u64).map(|i| 0x7E71 + i * 131).collect();
        let mut batch = BatchedLifTrevisanCircuit::new(g, &seeds, cfg);
        assert_eq!(batch.replicas(), r);
        let mut ones: Vec<BatchedLifTrevisanCircuit> =
            seeds.iter().map(|&s| one_seed(g, s, cfg)).collect();
        for sample in 0..10 {
            let cuts = batch.next_cuts();
            for (i, one) in ones.iter_mut().enumerate() {
                assert_eq!(
                    cuts[i],
                    one.next_cuts()[0],
                    "n={n} R={r} sample {sample} replica {i}"
                );
                for (a, b) in batch.readout_weights(i).iter().zip(one.readout_weights(0)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} R={r} replica {i}");
                }
            }
        }
        assert_eq!(batch.updates(), 30);
    }

    #[test]
    fn batched_best_traces_match_parallel_best_traces() {
        // The blocked, bit-sliced traces equal each replica's stream
        // scored one sample at a time by the incremental tracker.
        use snc_neuro::Reset;
        let g = gnp(14, 0.4, 8).unwrap();
        // Both reset modes: with Reset::ToValue the spike flags feed back
        // into the stage-1 dynamics, exercising the other batched path.
        for reset in [Reset::None, Reset::ToValue(0.0)] {
            let cfg = LifTrevisanConfig {
                network: TwoStageConfig {
                    reset,
                    ..TwoStageConfig::default()
                },
                ..LifTrevisanConfig::default()
            };
            let seeds: Vec<u64> = (0..6u64).map(|i| 500 + i).collect();
            let cp = log2_checkpoints(24);
            let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &cfg);
            let batched = batch.best_traces(&g, &cp);
            let reference: Vec<BestTrace> = seeds
                .iter()
                .map(|&s| {
                    let mut one = one_seed(&g, s, &cfg);
                    sample_best_trace(&mut || one.next_cuts().remove(0), &g, &cp)
                })
                .collect();
            assert_eq!(batched, reference, "reset={reset:?}");
        }
    }

    #[test]
    fn batched_learning_improves_like_sequential() {
        // The characteristic LIF-TR shape survives batching: the merged
        // best-so-far curve improves as learning proceeds.
        let g = gnp(20, 0.3, 5).unwrap();
        let seeds = [11u64, 12, 13, 14];
        let mut batch = BatchedLifTrevisanCircuit::new(&g, &seeds, &LifTrevisanConfig::default());
        let traces = batch.best_traces(&g, &log2_checkpoints(4000));
        let merged = crate::sampling::merge_traces(&traces);
        assert!(merged.final_best() as f64 > g.m() as f64 / 2.0);
        assert!(merged.best.windows(2).all(|w| w[0] <= w[1]));
    }
}
