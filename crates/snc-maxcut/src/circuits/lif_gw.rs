//! The LIF-Goemans-Williamson circuit (Fig. 1, §IV.A).
//!
//! A pool of `r` stochastic devices drives `n` LIF neurons through weights
//! proportional to the SDP factor matrix `W_GW`. By §III.C the stationary
//! membrane covariance is `κ·W_GW W_GWᵀ` — exactly (proportionally) the
//! covariance the Bertsimas–Ye sampling step requires. Thresholding each
//! neuron at its stationary mean makes "spiked vs. silent" the sign of a
//! centered Gaussian: *"Neurons that spike together on a given timestep map
//! to vertices on one side of the cut."*
//!
//! Between samples the circuit free-runs for a decorrelation interval
//! (several membrane time constants) so consecutive readouts are
//! approximately independent — the hardware analogue of drawing fresh
//! Gaussians.
//!
//! [`BatchedLifGwCircuit`] is the one implementation: `R` independent
//! seeded replicas of the circuit, of which a one-seed batch is the
//! single circuit.

use crate::sampling::{batched_best_traces, cuts_from_lane, BestTrace};
use snc_devices::{CommonCause, DeviceModel, PoolSpec};
use snc_graph::{CutAssignment, Graph};
use snc_linalg::DMatrix;
use snc_neuro::{DenseWeights, LifParams, ReplicaBatch, Reset};

/// Configuration of the LIF-GW circuit.
#[derive(Clone, Debug)]
pub struct LifGwConfig {
    /// Membrane parameters of the LIF population.
    pub lif: LifParams,
    /// Reset policy of the readout (default: none — pure statistical
    /// threshold readout; see `snc_neuro::lif::Reset`).
    pub reset: Reset,
    /// Scale applied to the SDP factors when programming the synapses
    /// ("the precise magnitudes of these weights are not critical", §IV.A).
    pub weight_scale: f64,
    /// Steps between samples; `None` uses the analytic decorrelation
    /// horizon (≈ 5τ).
    pub decorrelate_steps: Option<u64>,
    /// Device model (fair coins in the paper's evaluation).
    pub device: DeviceModel,
    /// Optional cross-device common-cause correlation (robustness study).
    pub common_cause: Option<CommonCause>,
    /// Steps to free-run before the first sample.
    pub warmup_steps: u64,
}

impl Default for LifGwConfig {
    fn default() -> Self {
        Self {
            lif: LifParams::default(),
            reset: Reset::None,
            weight_scale: 1.0,
            decorrelate_steps: None,
            device: DeviceModel::fair(),
            common_cause: None,
            warmup_steps: 200,
        }
    }
}

/// `R` LIF-GW replicas advanced in lock-step, structure-of-arrays.
///
/// Each replica is an independent circuit (own device seed, same SDP
/// factors and configuration), but all replicas share one traversal of
/// the weight matrix per time step via [`ReplicaBatch`]. Replica `r`'s
/// sample stream is bit-for-bit that of the one-seed batch
/// `BatchedLifGwCircuit::new(factors, &[seeds[r]], cfg)` — batching
/// changes the schedule, never the samples — which the lane tests pin.
///
/// # Examples
///
/// ```
/// use snc_linalg::DMatrix;
/// use snc_maxcut::{BatchedLifGwCircuit, LifGwConfig};
///
/// // Tiny 3-vertex factor matrix (rank 2) for illustration; real use
/// // passes `solve_gw(..).factors`.
/// let factors = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.6, -0.8]]);
/// let mut batch = BatchedLifGwCircuit::new(
///     &factors, &[1, 2, 3, 4], &LifGwConfig::default());
/// assert_eq!((batch.replicas(), batch.n()), (4, 3));
/// let cuts = batch.next_cuts();
/// assert_eq!(cuts.len(), 4);
/// assert!(cuts.iter().all(|c| c.len() == 3));
/// ```
#[derive(Clone, Debug)]
pub struct BatchedLifGwCircuit {
    // LIF-annealed runs on this substrate, hence the sibling visibility.
    pub(super) batch: ReplicaBatch<DenseWeights>,
    pub(super) decorrelate: u64,
}

impl BatchedLifGwCircuit {
    /// Builds one replica per seed from an SDP factor matrix (`n × r`, one
    /// row per vertex — the output of [`crate::gw::solve_gw`]), and
    /// free-runs every replica for the warmup.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(factors: &DMatrix, seeds: &[u64], cfg: &LifGwConfig) -> Self {
        let r = factors.cols();
        let weights = DenseWeights::from_matrix_scaled(factors, cfg.weight_scale);
        let mut spec = PoolSpec::uniform(cfg.device.clone(), r);
        if let Some(cc) = cfg.common_cause {
            spec = spec.with_common_cause(cc);
        }
        let mut batch = ReplicaBatch::new(spec, seeds, weights, cfg.lif, cfg.reset);
        batch.step_many(cfg.warmup_steps);
        let decorrelate = cfg
            .decorrelate_steps
            .unwrap_or_else(|| cfg.lif.decorrelation_steps())
            .max(1);
        Self { batch, decorrelate }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.batch.replicas()
    }

    /// Number of vertices / neurons per replica.
    pub fn n(&self) -> usize {
        self.batch.neurons()
    }

    /// Number of devices per replica (the SDP rank).
    pub fn devices(&self) -> usize {
        self.batch.devices()
    }

    /// Steps simulated between samples.
    pub fn decorrelate_steps(&self) -> u64 {
        self.decorrelate
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        let (n, replicas) = (self.n(), self.replicas());
        cuts_from_lane(n, replicas, |lane, words| self.next_lane(lane, words))
    }

    /// Advances all replicas to the next sample and sets replica `r`'s
    /// cut (spiked ⇒ `+1`) into bit `lane` of `words[r * n..(r + 1) * n]`,
    /// a bit-sliced block (see [`snc_graph::bitslice`]) whose lane is
    /// clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != n · replicas` or `lane >= 64`.
    pub fn next_lane(&mut self, lane: usize, words: &mut [u64]) {
        self.batch.step_many(self.decorrelate);
        self.batch.spike_lane_into(lane, words);
    }

    /// Runs every replica against the shared checkpoint grid and returns
    /// one best-so-far trace per replica: trace `r` is
    /// [`crate::sample_best_trace`] over the one-seed batch for
    /// `seeds[r]`.
    ///
    /// Samples are drawn 64 at a time and scored by one bit-sliced pass
    /// over the edges per block ([`snc_graph::bitslice`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use snc_graph::generators::structured::complete_bipartite;
    /// use snc_maxcut::{log2_checkpoints, solve_gw, BatchedLifGwCircuit, GwConfig, LifGwConfig};
    ///
    /// let g = complete_bipartite(3, 3);
    /// let factors = solve_gw(&g, &GwConfig::default()).unwrap().factors;
    /// let mut batch = BatchedLifGwCircuit::new(&factors, &[7, 8, 9], &LifGwConfig::default());
    /// let traces = batch.best_traces(&g, &log2_checkpoints(8));
    /// // One best-so-far trace per replica on the shared sample grid.
    /// assert_eq!(traces.len(), 3);
    /// assert!(traces.iter().all(|t| t.checkpoints == log2_checkpoints(8)));
    /// // On K_{3,3} nearly every sample is the exact cut (9 edges).
    /// assert!(traces.iter().any(|t| t.final_best() == 9));
    /// ```
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
    use crate::exact::brute_force;
    use crate::gw::{solve_gw, GwConfig, GwSampler};
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::complete_bipartite;

    #[test]
    fn circuit_dimensions_follow_sdp_rank() {
        let g = complete_bipartite(3, 3);
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let circuit = BatchedLifGwCircuit::new(&sol.factors, &[1], &LifGwConfig::default());
        assert_eq!(circuit.n(), 6);
        assert_eq!(circuit.devices(), 4); // fixed rank 4 per the paper
        assert_eq!(circuit.decorrelate_steps(), 50); // 5τ at τ/Δt = 10
    }

    #[test]
    fn bipartite_cut_found_quickly() {
        // On bipartite graphs the membrane correlations are ±1 between
        // parts, so nearly every sample is the exact cut.
        let g = complete_bipartite(4, 4);
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut circuit = BatchedLifGwCircuit::new(&sol.factors, &[3], &LifGwConfig::default());
        let trace = circuit.best_traces(&g, &log2_checkpoints(8)).remove(0);
        assert_eq!(trace.final_best(), 16);
    }

    #[test]
    fn matches_software_gw_on_small_graphs() {
        // The headline claim of Fig. 3: "the LIF-GW circuit matches the
        // performance of the generic solver."
        for seed in 0..3u64 {
            let g = gnp(14, 0.5, seed).unwrap();
            let opt = brute_force(&g).1;
            if opt == 0 {
                continue;
            }
            let sol = solve_gw(&g, &GwConfig::default()).unwrap();
            let cp = log2_checkpoints(128);
            let mut circuit =
                BatchedLifGwCircuit::new(&sol.factors, &[seed], &LifGwConfig::default());
            let circuit_trace = circuit.best_traces(&g, &cp).remove(0);
            let mut software = GwSampler::new(sol.factors.clone(), seed ^ 0xFF);
            let software_trace = sample_best_trace(&mut software, &g, &cp);
            let c = circuit_trace.final_best() as f64 / opt as f64;
            let s = software_trace.final_best() as f64 / opt as f64;
            assert!(
                (c - s).abs() <= 0.12,
                "seed={seed}: circuit {c:.3} vs software {s:.3}"
            );
            assert!(c >= 0.878, "seed={seed}: circuit ratio {c}");
        }
    }

    #[test]
    fn batched_replicas_match_sequential_circuits() {
        // Lane independence: every replica's sample stream is bit-for-bit
        // the one-seed batch's with the same seed (the one-seed batches,
        // stepped one after the other, are the sequential reference).
        let g = gnp(16, 0.4, 9).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let cfg = LifGwConfig::default();
        let seeds: Vec<u64> = (0..6u64).map(|i| 0x6A11 + i * 97).collect();
        let mut batch = BatchedLifGwCircuit::new(&sol.factors, &seeds, &cfg);
        assert_eq!(batch.replicas(), 6);
        assert_eq!(batch.devices(), 4);
        let mut ones: Vec<BatchedLifGwCircuit> = seeds
            .iter()
            .map(|&s| BatchedLifGwCircuit::new(&sol.factors, &[s], &cfg))
            .collect();
        for sample in 0..12 {
            let cuts = batch.next_cuts();
            for (r, one) in ones.iter_mut().enumerate() {
                assert_eq!(cuts[r], one.next_cuts()[0], "sample {sample} replica {r}");
            }
        }
    }

    #[test]
    fn batched_best_traces_match_parallel_best_traces() {
        // The blocked, bit-sliced traces equal each replica's stream
        // scored one sample at a time by the incremental tracker.
        let g = gnp(14, 0.5, 4).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let cfg = LifGwConfig::default();
        let seeds: Vec<u64> = (0..8u64).map(|i| 1000 + i).collect();
        let cp = log2_checkpoints(32);
        let mut batch = BatchedLifGwCircuit::new(&sol.factors, &seeds, &cfg);
        let batched = batch.best_traces(&g, &cp);
        let reference: Vec<BestTrace> = seeds
            .iter()
            .map(|&s| {
                let mut one = BatchedLifGwCircuit::new(&sol.factors, &[s], &cfg);
                sample_best_trace(&mut || one.next_cuts().remove(0), &g, &cp)
            })
            .collect();
        assert_eq!(batched, reference);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnp(10, 0.4, 5).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut a = BatchedLifGwCircuit::new(&sol.factors, &[7], &LifGwConfig::default());
        let mut b = BatchedLifGwCircuit::new(&sol.factors, &[7], &LifGwConfig::default());
        for _ in 0..5 {
            assert_eq!(a.next_cuts(), b.next_cuts());
        }
    }

    #[test]
    fn spike_rate_balanced_at_mean_threshold() {
        let g = gnp(12, 0.5, 2).unwrap();
        let sol = solve_gw(&g, &GwConfig::default()).unwrap();
        let mut circuit = BatchedLifGwCircuit::new(&sol.factors, &[11], &LifGwConfig::default());
        let samples = 400;
        let mut per_neuron = [0u32; 12];
        for _ in 0..samples {
            let cut = circuit.next_cuts().remove(0);
            for i in 0..12 {
                if cut.side(i) == 1 {
                    per_neuron[i] += 1;
                }
            }
        }
        for (i, &c) in per_neuron.iter().enumerate() {
            let rate = c as f64 / samples as f64;
            assert!((rate - 0.5).abs() < 0.2, "neuron {i}: rate {rate}");
        }
    }
}
