//! The annealed-noise LIF-GW circuit: temperature-scheduled stochastic
//! relaxation on the LIF-GW substrate.
//!
//! The circuit keeps LIF-GW's entire stochastic machinery — SDP factors
//! programmed into the synapses, a stochastic device pool, the same
//! decorrelation free-run between samples, the same RNG streams — and
//! anneals the *readout*: sample `t` thresholds the mixed field
//!
//! ```text
//! f_i(t) = σ(t)·z_i  +  (σ(0) − σ(t))·gain·h_i
//! ```
//!
//! where `z_i` is the mean-centered membrane (the Gaussian LIF-GW
//! rounds) and `h_i = −(Σ_j w_ij s_j)/deg_i` is the deterministic local
//! field of the *previous* sample's partition `s` — the direction that
//! flips `i` to disagree with its neighbors. Early in the schedule
//! (`σ(t) ≈ σ(0)`) the readout is pure Gaussian exploration; as σ cools
//! the local field dominates and samples lock into greedy refinements
//! of their predecessors — the memristor-Hopfield annealing recipe of
//! Cai et al. (2020) transplanted onto the paper's circuit.
//!
//! Two exactness properties anchor the family:
//!
//! * **Constant schedule ⇒ LIF-GW bit for bit.** With `σ(t) = σ(0)` the
//!   feedback coefficient is exactly `0.0` and the readout reduces to
//!   `z_i > 0`, which equals the spike readout `V_i > θ_i` bit for bit
//!   (`θ_i` is the analytic mean that centering subtracts; IEEE
//!   subtraction preserves exact sign). The regression test pins this.
//! * **The σ-schedule consumes no RNG draws** — it only re-weighs the
//!   readout — so the device/membrane trajectories are bit-identical to
//!   LIF-GW's under any schedule.
//!
//! [`LifAnnealedCircuit`] is the one implementation: `R`
//! independent seeded replicas, of which a one-seed batch is the single
//! circuit.

use crate::anneal::CoolingSchedule;
use crate::circuits::lif_gw::{LifGwCircuit, LifGwConfig};
use crate::graph::MaxCutGraph;
use crate::sampling::cuts_from_lane;
use snc_graph::CutAssignment;
use snc_linalg::DMatrix;
use snc_neuro::ReplicaBatch;

/// Configuration of the annealed LIF-GW circuit.
#[derive(Clone, Debug)]
pub struct LifAnnealedConfig {
    /// The LIF-GW substrate configuration (devices, membranes, warmup,
    /// decorrelation).
    pub base: LifGwConfig,
    /// The σ cooling schedule over the per-replica sample horizon.
    pub schedule: CoolingSchedule,
    /// Gain on the local feedback field once σ departs from σ(0).
    pub feedback_gain: f64,
}

impl Default for LifAnnealedConfig {
    fn default() -> Self {
        Self {
            base: LifGwConfig::default(),
            schedule: CoolingSchedule::default(),
            feedback_gain: 1.0,
        }
    }
}

/// The graph-local feedback field `h_i = −(Σ_j w_ij s_j)/norm_i`, with
/// `norm_i = Σ_j |w_ij|` (degree on unweighted graphs; 1 for isolated
/// vertices so the division is always defined).
#[derive(Clone, Debug)]
struct FeedbackField<'g> {
    /// The graph's CSR rows, read in place.
    offsets: &'g [usize],
    targets: &'g [u32],
    /// The coupling weights, or `None` when every weight is 1: then the
    /// drive `Σ_j s_j` is an integer kept per vertex ([`Previous`]).
    weights: Option<Vec<f64>>,
    inv_norm: Vec<f64>,
}

/// One replica's previous sample (`true` ⇒ `+1` side) and, on unit
/// weights while the next sample reads the field, each vertex's integer
/// drive `Σ_j s_j` over it.
#[derive(Clone, Debug)]
struct Previous {
    sides: Vec<bool>,
    drive: Option<Vec<i64>>,
}

impl Previous {
    fn new(n: usize) -> Self {
        Self {
            sides: vec![false; n],
            drive: None,
        }
    }
}

impl<'g> FeedbackField<'g> {
    fn new(graph: &'g impl MaxCutGraph) -> Self {
        let (offsets, targets, weights) = graph.rows();
        let weights: Vec<f64> = weights.collect();
        let inv_norm = offsets
            .windows(2)
            .map(|row| {
                let norm: f64 = weights[row[0]..row[1]].iter().map(|w| w.abs()).sum();
                if norm > 0.0 {
                    1.0 / norm
                } else {
                    1.0
                }
            })
            .collect();
        let unit = weights.iter().all(|&w| w == 1.0);
        Self {
            offsets,
            targets,
            weights: (!unit).then_some(weights),
            inv_norm,
        }
    }

    fn n(&self) -> usize {
        self.inv_norm.len()
    }

    fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Writes `h` for the previous partition into `out`.
    ///
    /// With unit weights the drive is the integer `Σ_j s_j`, converted
    /// once. That is the `f64` sum of `1.0 × (±1.0)` terms bit for bit:
    /// every partial sum is a small integer, so no term rounds, and a
    /// balanced neighbourhood gives `+0.0` either way (so `h_i = −0.0` in
    /// both).
    fn compute(&self, prev: &Previous, out: &mut [f64]) {
        let Some(weights) = &self.weights else {
            let drive = prev
                .drive
                .as_ref()
                .expect("the drive is kept for a field read");
            for ((o, &d), &inv) in out.iter_mut().zip(drive).zip(&self.inv_norm) {
                *o = -(d as f64) * inv;
            }
            return;
        };
        for i in 0..self.n() {
            let mut drive = 0.0;
            for k in self.offsets[i]..self.offsets[i + 1] {
                let side = if prev.sides[self.targets[k] as usize] {
                    1.0
                } else {
                    -1.0
                };
                drive += weights[k] * side;
            }
            out[i] = -drive * self.inv_norm[i];
        }
    }

    /// Makes `next` the previous sample. On unit weights, when `keep`
    /// (the next sample reads the field), the drives follow: from scratch
    /// if they were not kept, else by the vertices that changed side —
    /// or, when more than half did, by negating every drive (a cut's
    /// complement has the opposite drives) and applying the vertices that
    /// kept their side. Either way each drive is the exact integer sum.
    fn advance(&self, prev: &mut Previous, next: &[bool], keep: bool) {
        prev.drive = match prev.drive.take() {
            _ if self.weights.is_some() || !keep => None,
            None => Some(
                (0..self.n())
                    .map(|i| {
                        let plus = self
                            .neighbors(i)
                            .iter()
                            .filter(|&&j| next[j as usize])
                            .count();
                        2 * plus as i64 - self.neighbors(i).len() as i64
                    })
                    .collect(),
            ),
            Some(mut drive) => {
                let changed = prev.sides.iter().zip(next).filter(|(a, b)| a != b).count();
                let complement = 2 * changed > self.n();
                if complement {
                    drive.iter_mut().for_each(|d| *d = -*d);
                }
                for (j, (&old, &new)) in prev.sides.iter().zip(next).enumerate() {
                    if (old != new) != complement {
                        let delta = if new { 2 } else { -2 };
                        for &i in self.neighbors(j) {
                            drive[i as usize] += delta;
                        }
                    }
                }
                Some(drive)
            }
        };
        prev.sides.copy_from_slice(next);
    }
}

/// The annealed readout every replica applies: the feedback field, the σ
/// tape and the feedback gain.
#[derive(Clone, Debug)]
struct AnnealedReadout<'g> {
    field: FeedbackField<'g>,
    sigma: SigmaTape,
    gain: f64,
}

impl<'g> AnnealedReadout<'g> {
    fn new(graph: &'g impl MaxCutGraph, cfg: &LifAnnealedConfig, horizon: u64) -> Self {
        Self {
            field: FeedbackField::new(graph),
            sigma: SigmaTape::new(&cfg.schedule, horizon),
            gain: cfg.feedback_gain,
        }
    }

    /// The feedback coefficient `σ(0) − σ(t)` of sample `t` and its σ.
    fn coeff(&self, t: u64) -> (f64, f64) {
        let sigma = self.sigma.at(t);
        (self.sigma.start() - sigma, sigma)
    }

    /// Reads sample `t` of one replica from its centered membranes `z`
    /// into `next` and makes it the replica's previous sample: the
    /// threshold of `σ·z + coeff·gain·h` (`true` ⇒ `+1` side), reduced to
    /// the exact LIF-GW spike readout `z > 0` when `coeff == 0` and for
    /// the first sample. `h` and `next` are scratch.
    fn read(&self, t: u64, z: &[f64], prev: &mut Previous, next: &mut [bool], h: &mut [f64]) {
        let (coeff, sigma) = self.coeff(t);
        if coeff == 0.0 || t == 0 {
            for (s, &zi) in next.iter_mut().zip(z) {
                *s = zi > 0.0;
            }
        } else {
            self.field.compute(prev, h);
            let gain = self.gain;
            for ((s, &zi), &hi) in next.iter_mut().zip(z).zip(h.iter()) {
                *s = sigma * zi + coeff * gain * hi > 0.0;
            }
        }
        self.field.advance(prev, next, self.coeff(t + 1).0 != 0.0);
    }
}

/// σ values over a sample horizon, clamped at the final level for
/// samples drawn past it.
#[derive(Clone, Debug)]
struct SigmaTape {
    values: Vec<f64>,
}

impl SigmaTape {
    fn new(schedule: &CoolingSchedule, horizon: u64) -> Self {
        Self {
            values: schedule.values(horizon.max(1)),
        }
    }

    fn start(&self) -> f64 {
        self.values[0]
    }

    fn at(&self, t: u64) -> f64 {
        let idx = (t as usize).min(self.values.len() - 1);
        self.values[idx]
    }
}

/// `R` annealed replicas advanced in lock-step on one [`ReplicaBatch`].
///
/// The membrane machinery is a [`LifGwCircuit`]'s, built by its
/// constructor (same warmup, same per-step RNG streams);
/// only the readout differs. Replica `r`'s sample stream is bit-for-bit
/// the one-seed batch's with seed `seeds[r]` — and, under a constant
/// schedule, bit-for-bit LIF-GW's.
#[derive(Clone, Debug)]
pub struct LifAnnealedCircuit<'g> {
    batch: ReplicaBatch,
    decorrelate: u64,
    readout: AnnealedReadout<'g>,
    prev: Vec<Previous>,
    next: Vec<bool>,
    t: u64,
    centered: Vec<f64>,
    h: Vec<f64>,
}

impl<'g> LifAnnealedCircuit<'g> {
    /// Builds one replica per seed from SDP factors and the graph whose
    /// rows the feedback field reads (weighted graphs take their factors
    /// from the weighted SDP), with `horizon` samples of schedule (the
    /// per-replica budget).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(
        factors: &DMatrix,
        graph: &'g impl MaxCutGraph,
        seeds: &[u64],
        cfg: &LifAnnealedConfig,
        horizon: u64,
    ) -> Self {
        let LifGwCircuit { batch, decorrelate } = LifGwCircuit::new(factors, seeds, &cfg.base);
        let n = graph.n();
        let replicas = seeds.len();
        Self {
            batch,
            decorrelate,
            readout: AnnealedReadout::new(graph, cfg, horizon),
            prev: vec![Previous::new(n); replicas],
            next: vec![false; n],
            t: 0,
            centered: vec![0.0; n * replicas],
            h: vec![0.0; n],
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.batch.replicas()
    }

    /// Number of vertices / neurons per replica.
    pub fn n(&self) -> usize {
        self.batch.neurons()
    }

    /// Advances all replicas to the next sample and returns one cut per
    /// replica (index `r` corresponds to `seeds[r]`).
    pub fn next_cuts(&mut self) -> Vec<CutAssignment> {
        let (n, replicas) = (self.n(), self.replicas());
        cuts_from_lane(n, replicas, |lane, words| self.next_lane(lane, words))
    }

    /// Advances all replicas to the next sample and sets replica `r`'s
    /// cut into bit `lane` of `words[r * n..(r + 1) * n]`, a bit-sliced
    /// block (see [`snc_graph::bitslice`]) whose lane is clear.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != n · replicas`.
    pub fn next_lane(&mut self, lane: usize, words: &mut [u64]) {
        let n = self.n();
        assert_eq!(words.len(), n * self.replicas(), "block length");
        self.batch.step_many(self.decorrelate);
        self.batch.centered_into(&mut self.centered);
        for (r, prev) in self.prev.iter_mut().enumerate() {
            let z = &self.centered[r * n..(r + 1) * n];
            self.readout
                .read(self.t, z, prev, &mut self.next, &mut self.h);
            for (w, &s) in words[r * n..(r + 1) * n].iter_mut().zip(&prev.sides) {
                *w |= u64::from(s) << lane;
            }
        }
        self.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gw::{solve_gw, GwConfig};
    use snc_devices::Rng64;
    use snc_graph::generators::erdos_renyi::gnp;
    use snc_graph::generators::structured::complete_bipartite;
    use snc_graph::{Graph, WeightedGraph};

    fn factors_for(g: &Graph) -> DMatrix {
        solve_gw(g, &GwConfig::default()).unwrap().factors
    }

    #[test]
    fn constant_schedule_reproduces_lif_gw_bit_for_bit() {
        // The satellite regression: with σ(t) ≡ σ(0) the annealed
        // readout is exactly the LIF-GW spike readout, sample by sample.
        let g = gnp(16, 0.4, 3).unwrap();
        let factors = factors_for(&g);
        let seeds = [5u64, 6, 7];
        let base = LifGwConfig::default();
        let cfg = LifAnnealedConfig {
            base: base.clone(),
            schedule: CoolingSchedule::constant(1.0).unwrap(),
            feedback_gain: 1.0,
        };
        let mut gw = LifGwCircuit::new(&factors, &seeds, &base);
        let mut annealed = LifAnnealedCircuit::new(&factors, &g, &seeds, &cfg, 16);
        for sample in 0..16 {
            assert_eq!(annealed.next_cuts(), gw.next_cuts(), "sample {sample}");
        }
    }

    #[test]
    fn batched_replicas_match_sequential_circuits() {
        // Lane independence: every replica's sample stream is the
        // one-seed batch's with the same seed.
        let g = gnp(14, 0.4, 9).unwrap();
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let seeds = [100u64, 200, 300];
        let horizon = 12;
        let mut batch = LifAnnealedCircuit::new(&factors, &g, &seeds, &cfg, horizon);
        assert_eq!(
            (batch.replicas(), batch.n(), batch.batch.devices()),
            (3, 14, 4)
        );
        let mut ones: Vec<LifAnnealedCircuit> = seeds
            .iter()
            .map(|&s| LifAnnealedCircuit::new(&factors, &g, &[s], &cfg, horizon))
            .collect();
        for sample in 0..12 {
            let cuts = batch.next_cuts();
            for (r, one) in ones.iter_mut().enumerate() {
                assert_eq!(cuts[r], one.next_cuts()[0], "sample {sample} replica {r}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnp(12, 0.5, 1).unwrap();
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let mut a = LifAnnealedCircuit::new(&factors, &g, &[42], &cfg, 10);
        let mut b = LifAnnealedCircuit::new(&factors, &g, &[42], &cfg, 10);
        for _ in 0..10 {
            assert_eq!(a.next_cuts(), b.next_cuts());
        }
    }

    #[test]
    fn cooling_locks_in_the_bipartite_cut() {
        // On K(4,4) the cooled feedback phase must preserve (or reach)
        // the exact cut: once a sample hits the bipartition, the local
        // field of every vertex points away from its neighbors and the
        // cold readout keeps it there.
        let g = complete_bipartite(4, 4);
        let factors = factors_for(&g);
        let cfg = LifAnnealedConfig::default();
        let mut circuit = LifAnnealedCircuit::new(&factors, &g, &[2], &cfg, 64);
        let mut best = 0;
        let mut last = 0;
        for _ in 0..64 {
            last = circuit.next_cuts()[0].cut_value(&g);
            best = best.max(last);
        }
        assert_eq!(best, 16);
        assert_eq!(last, 16, "the cooled tail must hold the optimum");
    }

    #[test]
    fn schedule_consumes_no_rng_draws() {
        // Different schedules, same seed: the membrane trajectories stay
        // bit-identical, so the first sample (σ == σ(0) in both) agrees.
        let g = gnp(12, 0.5, 8).unwrap();
        let factors = factors_for(&g);
        let geo_cfg = LifAnnealedConfig::default();
        let mut geo = LifAnnealedCircuit::new(&factors, &g, &[11], &geo_cfg, 32);
        let linear_cfg = LifAnnealedConfig {
            schedule: CoolingSchedule::linear(1.0, 0.0).unwrap(),
            ..LifAnnealedConfig::default()
        };
        let mut lin = LifAnnealedCircuit::new(&factors, &g, &[11], &linear_cfg, 32);
        assert_eq!(geo.next_cuts(), lin.next_cuts(), "t=0 readouts agree");
    }

    #[test]
    fn kept_drives_match_the_unit_weight_f64_sum_bit_for_bit() {
        // The integer drives, kept across samples that are fresh
        // partitions, single flips, complements and complements with a
        // flip (and rebuilt after a sample that did not keep them), must
        // give exactly the bits the f64 loop gives on unit weights, −0.0
        // of balanced neighbourhoods and of isolated vertices included.
        // Vertices 60 and 61 are isolated.
        let base = gnp(60, 0.08, 4).unwrap();
        let g = Graph::from_edges(62, &base.edges().collect::<Vec<_>>()).unwrap();
        let counted = FeedbackField::new(&g);
        assert!(
            counted.weights.is_none(),
            "unit weights keep integer drives"
        );
        let summed = FeedbackField {
            weights: Some(vec![1.0; counted.targets.len()]),
            ..counted.clone()
        };
        let mut rng = snc_devices::Xoshiro256pp::new(8);
        let (mut kept, mut plain) = (Previous::new(62), Previous::new(62));
        let mut next = vec![false; 62];
        let (mut a, mut b) = (vec![0.0; 62], vec![0.0; 62]);
        let mut negative_zeros = 0;
        for step in 0..400 {
            match step % 4 {
                0 => next.iter_mut().for_each(|s| *s = rng.next_bool(0.5)),
                1 => next[rng.next_u64() as usize % 62] ^= true,
                2 => next.iter_mut().for_each(|s| *s = !*s),
                _ => {
                    next.iter_mut().for_each(|s| *s = !*s);
                    next[rng.next_u64() as usize % 62] ^= true;
                }
            }
            let keep = step % 7 != 6;
            counted.advance(&mut kept, &next, keep);
            summed.advance(&mut plain, &next, keep);
            assert_eq!(kept.sides, next);
            if !keep {
                assert!(kept.drive.is_none());
                continue;
            }
            counted.compute(&kept, &mut a);
            summed.compute(&plain, &mut b);
            let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "step {step}");
            negative_zeros += a
                .iter()
                .filter(|x| x.to_bits() == (-0.0f64).to_bits())
                .count();
        }
        assert!(negative_zeros > 600, "balanced and isolated vertices occur");
    }

    #[test]
    fn weighted_field_uses_weight_magnitudes() {
        let wg = WeightedGraph::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, -1.0)]).unwrap();
        let field = FeedbackField::new(&wg);
        let mut h = vec![0.0; 3];
        let prev = Previous {
            sides: vec![true, true, false],
            drive: None,
        };
        field.compute(&prev, &mut h);
        // h_0 = −(2·(+1))/2 = −1; h_1 = −(2·1 + (−1)·(−1))/3 = −1;
        // h_2 = −((−1)·1)/1 = 1.
        assert!((h[0] + 1.0).abs() < 1e-15, "{h:?}");
        assert!((h[1] + 1.0).abs() < 1e-15, "{h:?}");
        assert!((h[2] - 1.0).abs() < 1e-15, "{h:?}");
    }
}
