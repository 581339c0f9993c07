//! The Hopfield–Tank relaxation circuit: the deterministic
//! continuous-descent baseline family.
//!
//! Anti-ferromagnetic couplings on the graph's edges make the Hopfield
//! energy's coupling term `½ Σ x_i x_j` over edges — minimized exactly
//! when adjacent units take opposite signs — so the sign-threshold
//! readout of the relaxation trajectory is a MAXCUT partition that
//! improves as the network descends. Unlike the stochastic families,
//! nothing is random after the seeded initial state: successive samples
//! read out successive stretches of one deterministic trajectory, and
//! replicas differ only in their seeded starting points (restarts, not
//! noise).
//!
//! [`BatchedHopfieldCircuit`] is the one implementation: `R` independent
//! seeded relaxations, of which a one-seed batch is the single circuit.

use crate::graph::MaxCutGraph;
use crate::sampling::{cuts_from_lane, set_lane_from_signs};
use snc_graph::CutAssignment;
use snc_neuro::hopfield::{HopfieldCouplings, HopfieldNetwork, HopfieldParams};
use std::sync::Arc;

/// The graph's couplings (unit couplings on an unweighted graph) in the
/// Hopfield slice layout.
fn layout(graph: &impl MaxCutGraph) -> HopfieldCouplings {
    let couplings: Vec<(u32, u32, f64)> = graph.couplings().collect();
    HopfieldCouplings::new(graph.n(), &couplings)
}

/// Configuration of the Hopfield circuit family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopfieldConfig {
    /// Dynamics parameters (step size, gain, leak, init scale).
    pub params: HopfieldParams,
    /// Euler steps integrated between successive cut readouts.
    pub steps_per_sample: u64,
}

impl Default for HopfieldConfig {
    fn default() -> Self {
        Self {
            params: HopfieldParams::default(),
            steps_per_sample: 8,
        }
    }
}

/// `R` Hopfield relaxations advanced in lock-step — independent seeded
/// restarts of the same deterministic descent. The replicas share one
/// coupling layout (built once per graph) and own only their state, so
/// replica `r`'s sample stream is the one-seed batch's with seed
/// `seeds[r]`; the lane test below pins that, so the family keeps the
/// same replica-independence contract as the stochastic circuits.
#[derive(Clone, Debug)]
pub struct BatchedHopfieldCircuit {
    nets: Vec<HopfieldNetwork>,
    steps_per_sample: u64,
}

impl BatchedHopfieldCircuit {
    /// Builds one relaxation per seed over a shared layout of the graph's
    /// couplings (unit couplings on an unweighted graph). Negative edge
    /// weights become ferromagnetic couplings (the endpoints prefer the
    /// same side), matching the weighted cut objective.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(graph: &impl MaxCutGraph, seeds: &[u64], cfg: &HopfieldConfig) -> Self {
        assert!(!seeds.is_empty(), "at least one replica seed");
        let couplings = Arc::new(layout(graph));
        Self {
            nets: seeds
                .iter()
                .map(|&s| HopfieldNetwork::with_couplings(Arc::clone(&couplings), cfg.params, s))
                .collect(),
            steps_per_sample: cfg.steps_per_sample.max(1),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.nets.len()
    }

    /// Number of vertices / units per replica.
    pub fn n(&self) -> usize {
        self.nets[0].n()
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        let (n, replicas) = (self.n(), self.replicas());
        cuts_from_lane(n, replicas, |lane, words| self.next_lane(lane, words))
    }

    /// Advances all replicas to the next sample and sets replica `r`'s
    /// cut (positive activation ⇒ `+1`) into bit `lane` of
    /// `words[r * n..(r + 1) * n]`, a bit-sliced block (see
    /// [`snc_graph::bitslice`]) whose lane is clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != n · replicas`.
    pub fn next_lane(&mut self, lane: usize, words: &mut [u64]) {
        let n = self.n();
        assert_eq!(words.len(), n * self.replicas(), "block length");
        for (r, net) in self.nets.iter_mut().enumerate() {
            net.step_many(self.steps_per_sample);
            set_lane_from_signs(&mut words[r * n..(r + 1) * n], lane, net.activations());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use crate::sampling::{log2_checkpoints, sample_best_trace};
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::complete_bipartite;
    use snc_graph::WeightedGraph;

    #[test]
    fn finds_the_bipartite_cut() {
        let g = complete_bipartite(4, 4);
        let mut circuit = BatchedHopfieldCircuit::new(&g, &[3], &HopfieldConfig::default());
        let mut stream = || circuit.next_cuts().remove(0);
        let trace = sample_best_trace(&mut stream, &g, &log2_checkpoints(64));
        assert_eq!(trace.final_best(), 16, "K(4,4) relaxes to the exact cut");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnp(14, 0.4, 2).unwrap();
        let mut a = BatchedHopfieldCircuit::new(&g, &[9], &HopfieldConfig::default());
        let mut b = BatchedHopfieldCircuit::new(&g, &[9], &HopfieldConfig::default());
        for _ in 0..8 {
            assert_eq!(a.next_cuts(), b.next_cuts());
        }
    }

    /// Lane independence: every replica's cuts, potentials and energy
    /// are the one-seed batch's with the same seed.
    fn assert_batched_matches_sequential(g: &impl MaxCutGraph) {
        let cfg = HopfieldConfig::default();
        let seeds = [10u64, 20, 30];
        let mut batch = BatchedHopfieldCircuit::new(g, &seeds, &cfg);
        assert_eq!((batch.replicas(), batch.n()), (3, g.n()));
        let mut ones: Vec<BatchedHopfieldCircuit> = seeds
            .iter()
            .map(|&s| BatchedHopfieldCircuit::new(g, &[s], &cfg))
            .collect();
        for sample in 0..10 {
            let cuts = batch.next_cuts();
            for (r, one) in ones.iter_mut().enumerate() {
                assert_eq!(
                    cuts[r],
                    one.next_cuts()[0],
                    "n={} sample {sample} replica {r}",
                    g.n()
                );
            }
        }
        for (r, net) in batch.nets.iter().enumerate() {
            let one = &ones[r].nets[0];
            assert_eq!(
                net.potentials(),
                one.potentials(),
                "n={} replica {r}",
                g.n()
            );
            assert_eq!(
                net.energy().to_bits(),
                one.energy().to_bits(),
                "n={} replica {r}",
                g.n()
            );
        }
    }

    #[test]
    fn batched_replicas_match_sequential_circuits() {
        // n % 4 ∈ {0, 1, 2, 3}: full slices and each partial last slice.
        for n in 12..16 {
            assert_batched_matches_sequential(&gnp(n, 0.5, 7).unwrap());
        }
        // Signed couplings with exact zeros of both signs.
        let g = gnp(23, 0.4, 5).unwrap();
        let edges: Vec<(u32, u32, f64)> = g
            .edges()
            .enumerate()
            .map(|(k, (u, v))| {
                let w = match k % 5 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -1.5,
                    _ => 0.25 + k as f64 * 0.125,
                };
                (u, v, w)
            })
            .collect();
        let weighted = WeightedGraph::from_weighted_edges(g.n(), &edges).unwrap();
        assert_batched_matches_sequential(&weighted);
    }

    #[test]
    fn restarts_reach_a_good_cut_on_random_graphs() {
        // Deterministic descent with a handful of restarts lands within
        // 80% of optimum on small ER graphs — a baseline, not a match
        // for the stochastic samplers, but far above random.
        for seed in 0..3u64 {
            let g = gnp(12, 0.5, seed).unwrap();
            let (_, opt) = brute_force(&g);
            if opt == 0 {
                continue;
            }
            let mut batch =
                BatchedHopfieldCircuit::new(&g, &[1, 2, 3, 4], &HopfieldConfig::default());
            let mut best = 0u64;
            for _ in 0..16 {
                for cut in batch.next_cuts() {
                    best = best.max(cut.cut_value(&g));
                }
            }
            let ratio = best as f64 / opt as f64;
            assert!(ratio >= 0.8, "seed={seed}: ratio {ratio}");
        }
    }

    #[test]
    fn weighted_construction_respects_signs() {
        // A strongly negative edge glues its endpoints to one side.
        let g = WeightedGraph::from_weighted_edges(3, &[(0, 1, -4.0), (1, 2, 1.0), (0, 2, 1.0)])
            .unwrap();
        let mut circuit = BatchedHopfieldCircuit::new(&g, &[1], &HopfieldConfig::default());
        let mut last = None;
        for _ in 0..40 {
            last = circuit.next_cuts().pop();
        }
        let cut = last.unwrap();
        assert_eq!(cut.side(0), cut.side(1), "negative edge keeps 0,1 together");
        // And the achieved weighted value is the optimum (2.0: cut both
        // unit edges, keep the negative edge uncut).
        assert_eq!(g.cut_value(&cut), 2.0);
    }
}
