//! The LIF-Trevisan two-stage network (Fig. 2).
//!
//! Stage 1 is the device-driven circuit motif — a pool of stochastic
//! devices feeding a LIF population through the Trevisan weight matrix,
//! with thresholds at the analytic stationary means.
//! [`TwoStageNetwork`] adds the second stage: one readout neuron
//! per replica whose incoming weight vector is trained online with Oja's
//! anti-Hebbian rule. The neuron's input current `y = w·x` is what
//! [`TwoStageNetwork::update`] returns. Its membrane is not
//! integrated: "the output of this Stage-2 neuron is discarded; what
//! matters is the weight vector w" (§IV.B).
//!
//! The membranes are read only at plasticity updates, every
//! `plasticity_interval` = P steps, and they are never reset, so between
//! two reads they are linear in the device bits:
//! `v ← d^P·v + g·W·x` with each device's discounted window
//! `x = Σ_k d^{P−1−k}·s_k`. Stage 1 therefore draws the interval's P
//! device states, folds each device's bits into its window, and applies
//! the sparse matrix once per update, on the slice gather the Hopfield
//! circuit also runs — not once per time step.
//!
//! Replicas are independent seeded copies of one circuit; a one-seed
//! batch is the single circuit.

use crate::gather::{chunked, with_chunks, Chunked, SliceRows, LANES};
use crate::lif::LifParams;
use crate::plasticity::{LearningRate, OjaMinor};
use crate::synapse::{CscWeights, InputWeights};
use crate::theory;
use snc_devices::{CommonCause, DeviceModel, DevicePool, PoolSpec};
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

/// The bit pattern of `1.0`.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// Stage 1 of `W` lanes, neuron-major: `v[i][l]` is neuron `i`'s
/// membrane in lane `l`. Lanes past the batch's last seed are phantom: no
/// pool drives them, and their windows and membranes hold `+0.0`, which
/// the update sends to `+0.0`.
#[derive(Clone, Debug)]
struct Stage1<const W: usize> {
    /// One device pool per real lane.
    pools: Vec<DevicePool>,
    v: Vec<[f64; W]>,
    /// The devices' discounted windows, plus the sentinel column `n`,
    /// which stays `+0.0`.
    x: Vec<[f64; W]>,
    /// Scratch: the lanes' packed device words over one advance,
    /// step-major: `words[k * word_count + b][l]` is word `b` of lane
    /// `l`'s state at step `k`.
    words: Vec<[u64; W]>,
}

impl<const W: usize> Stage1<W> {
    /// Lane `l < seeds.len()` gets a pool seeded with `seeds[l]` and
    /// membranes at the stationary `means`; the rest are phantom.
    fn new(spec: &PoolSpec, seeds: &[u64], means: &[f64]) -> Self {
        let mut v = vec![[0.0; W]; means.len()];
        for (vi, &m) in v.iter_mut().zip(means) {
            vi[..seeds.len()].fill(m);
        }
        Self {
            pools: seeds
                .iter()
                .map(|&seed| DevicePool::new(spec.clone(), seed))
                .collect(),
            v,
            x: vec![[0.0; W]; means.len() + 1],
            words: Vec::new(),
        }
    }

    /// Advances every lane `steps` time steps in one product. Between
    /// two reads the membrane is linear in the device bits `s`:
    /// `v ← d^steps·v + g·W·x` with `x = Σ_k d^{steps−1−k}·s_k`. Each
    /// device's window `x` is folded by Horner's rule, `x ← d·x + s`,
    /// oldest bit first, and `d^steps` is `steps` repeated
    /// multiplications, so every lane's arithmetic is fixed by `steps`
    /// alone.
    fn advance(&mut self, rows: &SliceRows, steps: usize, d: f64, g: f64) {
        let n = rows.n;
        let word_count = n.div_ceil(64);
        self.words.resize(steps * word_count, [0; W]);
        for (l, pool) in self.pools.iter_mut().enumerate() {
            for k in 0..steps {
                for (b, &s) in pool.step().words().iter().enumerate() {
                    self.words[k * word_count + b][l] = s;
                }
            }
        }
        for (a, x) in self.x[..n].iter_mut().enumerate() {
            let (b, shift) = (a / 64, a % 64);
            let mut window = [0.0; W];
            for words in self.words[b..].iter().step_by(word_count) {
                for l in 0..W {
                    // The bit as 0.0 or 1.0, by masking 1.0's bit pattern.
                    let bit = ((words[l] >> shift) & 1).wrapping_neg() & ONE_BITS;
                    window[l] = d * window[l] + f64::from_bits(bit);
                }
            }
            *x = window;
        }
        let mut d_steps = 1.0;
        for _ in 0..steps {
            d_steps *= d;
        }
        for s in 0..rows.slices() {
            let drive = rows.slice_drive(s, &self.x);
            for (v, drive) in self.v[rows.slice_rows(s)].iter_mut().zip(&drive) {
                for l in 0..W {
                    v[l] = d_steps * v[l] + g * drive[l];
                }
            }
        }
    }
}

/// Writes every real lane's mean-centered membranes into `out`,
/// replica-major (`out[r * n + i] = V_{i,r} − means[i]`).
fn centered_into<const W: usize>(chunks: &[Stage1<W>], means: &[f64], out: &mut [f64]) {
    for (r, lane) in out.chunks_exact_mut(means.len()).enumerate() {
        let (v, l) = (&chunks[r / W].v, r % W);
        for ((o, v), &m) in lane.iter_mut().zip(v).zip(means) {
            *o = v[l] - m;
        }
    }
}

/// Stage 1's lanes in chunks (see [`Chunked`]).
type Stage1Chunks = Chunked<Stage1<1>, Stage1<2>, Stage1<4>, Stage1<LANES>>;

/// `R` replicas of the LIF-Trevisan two-stage circuit advanced in
/// lock-step.
///
/// Stage 1 (devices → Trevisan weights → LIF membranes) keeps its
/// replicas as lanes of 1-, 2-, 4- or 8-wide chunks over one slice layout
/// of the sparse weight matrix, the layout the Hopfield circuit gathers
/// from: one pass over the rows feeds every lane of a chunk. Stage 2
/// keeps the plastic readout vectors replica-major (`w[r·n ..][..n]`) and
/// applies the Oja anti-Hebbian update to every replica in one SoA pass
/// ([`OjaMinor::update_replicas`]).
///
/// Replicas are independent: replica `r`'s trajectory — membranes,
/// plasticity signal, readout weight vector, stage-2 input currents — is bit
/// for bit that of a one-seed batch built from the same spec with seed
/// `seeds[r]`, so batching changes the schedule, never the numbers; the
/// lane tests in this module pin the equivalence.
///
/// # Examples
///
/// ```
/// use snc_graph::generators::structured::cycle;
/// use snc_neuro::{TwoStageNetwork, TwoStageConfig};
///
/// let g = cycle(8);
/// let mut batch = TwoStageNetwork::new(&g, &[1, 2, 3], TwoStageConfig::default());
/// batch.run_updates(10);
/// assert_eq!((batch.replicas(), batch.n(), batch.updates()), (3, 8, 10));
/// // Replica 2's plastic readout vector; its signs are the cut hypothesis.
/// assert_eq!(batch.readout_weights(2).len(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct TwoStageNetwork {
    /// The stage-1 weight matrix's rows in the slice layout.
    rows: SliceRows,
    /// Per-neuron stationary means, shared by all replicas.
    means: Vec<f64>,
    params: LifParams,
    stage1: Stage1Chunks,
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

impl TwoStageNetwork {
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
    /// optional common-cause correlation. The Trevisan matrix
    /// ([`CscWeights::trevisan`]) of an unweighted or weighted graph
    /// satisfies it by construction.
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
        fn split<const W: usize>(spec: &PoolSpec, seeds: &[u64], means: &[f64]) -> Vec<Stage1<W>> {
            seeds
                .chunks(W)
                .map(|lanes| Stage1::new(spec, lanes, means))
                .collect()
        }
        assert!(!seeds.is_empty(), "at least one replica seed required");
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
        // Every pool shares one spec, so the stationary probabilities (and
        // hence the analytic means) are the same for all replicas.
        let ps = DevicePool::new(spec.clone(), seeds[0]).stationary_ps();
        let mut means = vec![0.0; n];
        weights.apply(&ps, &mut means);
        let mf = theory::mean_factor(&config.lif);
        for m in &mut means {
            *m *= mf;
        }
        let stage1 = chunked!(replicas, split(&spec, seeds, &means));
        let mut readout_weights = Vec::with_capacity(n * replicas);
        for &seed in seeds {
            readout_weights.extend(initial_readout_weights(n, seed));
        }
        Self {
            rows: SliceRows::new(n, || weights.entries()),
            means,
            params: config.lif,
            stage1,
            readout_weights,
            learning_rate: config.learning_rate,
            plasticity_interval: config.plasticity_interval.max(1),
            centered: vec![0.0; n * replicas],
            ys: vec![0.0; replicas],
            gain: plasticity_gain(&config),
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
        self.means.len()
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

    /// Advances every replica one plasticity interval and applies the
    /// plasticity update. Returns the stage-2 input currents `y = w·x`,
    /// one per replica.
    pub fn update(&mut self) -> &[f64] {
        let (d, g) = (self.params.decay(), self.params.input_gain());
        let (rows, steps) = (&self.rows, self.plasticity_interval as usize);
        with_chunks!(&mut self.stage1, chunks => {
            for chunk in chunks.iter_mut() {
                chunk.advance(rows, steps, d, g);
            }
        });
        self.steps += self.plasticity_interval;
        let n = self.n();
        // Each element is one subtraction, `V − mean`.
        with_chunks!(&self.stage1, chunks => centered_into(chunks, &self.means, &mut self.centered));
        vector::scale(&mut self.centered, self.gain);
        // Lock-stepped replicas share the update index, hence the rate.
        let eta = self.learning_rate.at(self.updates);
        OjaMinor.update_replicas(&mut self.readout_weights, &self.centered, eta, &mut self.ys);
        self.updates += 1;
        for lane in self.readout_weights.chunks_exact_mut(n) {
            saturation_guard(lane);
        }
        &self.ys
    }

    /// Replica `r`'s stage-1 membranes (the lane tests' readout).
    #[cfg(test)]
    fn membranes(&self, r: usize) -> Vec<f64> {
        fn lane<const W: usize>(chunks: &[Stage1<W>], r: usize) -> Vec<f64> {
            chunks[r / W].v.iter().map(|v| v[r % W]).collect()
        }
        with_chunks!(&self.stage1, chunks => lane(chunks, r))
    }

    /// Runs until `updates` plasticity updates have been applied to every
    /// replica.
    pub fn run_updates(&mut self, updates: u64) {
        for _ in 0..updates {
            self.update();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ReplicaBatch;
    use crate::synapse::DenseWeights;
    use snc_graph::generators::structured::{complete_bipartite, cycle};
    use snc_linalg::DMatrix;

    /// One replica of the stage-1 motif on fair devices.
    fn motif(devices: usize, seed: u64, w: DenseWeights) -> ReplicaBatch {
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
        let mut net = TwoStageNetwork::new(&g, &[7], TwoStageConfig::default());
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
        let mut net = TwoStageNetwork::new(&g, &[3], TwoStageConfig::default());
        assert_eq!(net.n(), 6);
        net.run_updates(5);
        assert_eq!(net.updates(), 5);
        assert_eq!(net.steps(), 5 * 10); // default plasticity_interval = 10
    }

    #[test]
    fn two_stage_deterministic() {
        let g = cycle(8);
        let mut a = TwoStageNetwork::new(&g, &[11], TwoStageConfig::default());
        let mut b = TwoStageNetwork::new(&g, &[11], TwoStageConfig::default());
        a.run_updates(100);
        b.run_updates(100);
        assert_eq!(a.readout_weights(0), b.readout_weights(0));
    }

    /// Lane independence: every replica's full trajectory in an R-wide
    /// batch — stage-2 input currents and readout weight vectors at every
    /// plasticity update — is bit for bit the one-seed batch's with the
    /// same seed. The one-seed batches update one after the other, the
    /// sequential reference.
    fn assert_batched_two_stage_equals_sequential(
        cfg: TwoStageConfig,
        seeds: &[u64],
        updates: u64,
    ) {
        let g = gnp_like_graph();
        let mut batch = TwoStageNetwork::new(&g, seeds, cfg);
        let mut nets: Vec<TwoStageNetwork> = seeds
            .iter()
            .map(|&s| TwoStageNetwork::new(&g, &[s], cfg))
            .collect();
        for t in 0..updates {
            let ys = batch.update().to_vec();
            for (r, net) in nets.iter_mut().enumerate() {
                let y = net.update()[0];
                assert_eq!(y.to_bits(), ys[r].to_bits(), "y at update {t} r={r}");
                for (i, (a, b)) in batch
                    .readout_weights(r)
                    .iter()
                    .zip(net.readout_weights(0))
                    .enumerate()
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "w at update {t} r={r} i={i}");
                }
            }
        }
        assert_eq!(batch.updates(), updates);
        assert_eq!(batch.steps(), nets[0].steps());
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
        assert_batched_two_stage_equals_sequential(TwoStageConfig::default(), &seeds, 12);
    }

    #[test]
    fn batched_two_stage_single_replica_degenerates() {
        // R = 2 is the narrowest multi-lane chunk; each of its lanes must
        // be exactly the one-lane chunk.
        assert_batched_two_stage_equals_sequential(TwoStageConfig::default(), &[42, 43], 8);
    }

    /// One replica stepped the plain way, independently of the slice
    /// layout and of the interval form: a row-by-row (CSR) sum of the
    /// active devices' weights at every step, and the plasticity update
    /// every `plasticity_interval` steps.
    struct Reference {
        rows: Vec<Vec<(u32, f64)>>,
        pool: DevicePool,
        means: Vec<f64>,
        v: Vec<f64>,
        w: Vec<f64>,
        config: TwoStageConfig,
        updates: u64,
    }

    impl Reference {
        fn new(weights: &CscWeights, seed: u64, config: TwoStageConfig) -> Self {
            let n = weights.neurons();
            let mut rows = vec![Vec::new(); n];
            for (i, j, v) in weights.entries() {
                rows[i as usize].push((j, v));
            }
            let pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), n), seed);
            let mut means = vec![0.0; n];
            weights.apply(&pool.stationary_ps(), &mut means);
            let mf = theory::mean_factor(&config.lif);
            means.iter_mut().for_each(|m| *m *= mf);
            Self {
                rows,
                pool,
                v: means.clone(),
                means,
                w: initial_readout_weights(n, seed),
                config,
                updates: 0,
            }
        }

        fn update(&mut self) {
            let (d, g) = (self.config.lif.decay(), self.config.lif.input_gain());
            for _ in 0..self.config.plasticity_interval {
                let s = self.pool.step();
                for (v, row) in self.v.iter_mut().zip(&self.rows) {
                    let current = row
                        .iter()
                        .filter(|&&(j, _)| s.get(j as usize))
                        .fold(0.0, |acc, &(_, w)| acc + w);
                    *v = d * *v + g * current;
                }
            }
            let gain = plasticity_gain(&self.config);
            let x: Vec<f64> = self
                .v
                .iter()
                .zip(&self.means)
                .map(|(v, m)| (v - m) * gain)
                .collect();
            let eta = self.config.learning_rate.at(self.updates);
            OjaMinor.update(&mut self.w, &x, eta);
            saturation_guard(&mut self.w);
            self.updates += 1;
        }
    }

    /// Between two reads the membrane is linear in the device bits, so
    /// one product per plasticity interval follows the stepwise circuit:
    /// at every one of 256 updates at the served membrane parameters
    /// (Δt 0.5), every lane's membranes match a stepwise [`Reference`] to
    /// 1e-12 relative and its readout weights to 1e-9 of their norm.
    #[test]
    fn stage_one_is_linear_between_reads() {
        let config = TwoStageConfig {
            lif: LifParams {
                dt: 0.5,
                ..LifParams::default()
            },
            ..TwoStageConfig::default()
        };
        let graphs = [
            snc_graph::generators::erdos_renyi::gnp(150, 0.05, 0x150).unwrap(),
            cycle(11),
        ];
        for g in &graphs {
            let weights = CscWeights::trevisan(g, config.weight_scale);
            for lanes in [1u64, 3, 8] {
                let seeds: Vec<u64> = (0..lanes).map(|r| 0x51 + 7 * r).collect();
                let mut batch = TwoStageNetwork::new(g, &seeds, config);
                let mut refs: Vec<Reference> = seeds
                    .iter()
                    .map(|&s| Reference::new(&weights, s, config))
                    .collect();
                for t in 0..256 {
                    batch.update();
                    for (r, reference) in refs.iter_mut().enumerate() {
                        reference.update();
                        let at = format!("n={} R={lanes} r={r} update {t}", g.n());
                        for (&got, &want) in batch.membranes(r).iter().zip(&reference.v) {
                            let tol = 1e-12 * want.abs().max(1.0);
                            assert!((got - want).abs() <= tol, "{at}: v {got} vs {want}");
                        }
                        let tol = 1e-9 * vector::norm(&reference.w);
                        for (&got, &want) in batch.readout_weights(r).iter().zip(&reference.w) {
                            assert!((got - want).abs() <= tol, "{at}: w {got} vs {want}");
                        }
                    }
                }
            }
        }
    }

    /// Every phantom lane's window and membrane bits, for a batch of
    /// `lanes` real lanes in chunks of `W`.
    fn phantom_bits<const W: usize>(chunks: &[Stage1<W>], lanes: usize) -> Vec<u64> {
        let last = chunks.last().unwrap();
        (lanes - (chunks.len() - 1) * W..W)
            .flat_map(|l| last.v.iter().chain(&last.x).map(move |v| v[l].to_bits()))
            .collect()
    }

    #[test]
    fn phantom_lanes_stay_zero() {
        let g = gnp_like_graph();
        let seeds: Vec<u64> = (0..9u64).map(|i| 0x9A + i).collect();
        for (lanes, phantoms) in [(3usize, 1usize), (9, 7)] {
            let mut batch = TwoStageNetwork::new(&g, &seeds[..lanes], TwoStageConfig::default());
            batch.run_updates(20);
            let bits = with_chunks!(&batch.stage1, chunks => phantom_bits(chunks, lanes));
            assert_eq!(bits.len(), phantoms * (2 * g.n() + 1), "R={lanes}");
            assert!(
                bits.iter().all(|&b| b == 0),
                "R={lanes}: a phantom lane moved"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn batched_two_stage_empty_seeds_panics() {
        let g = cycle(4);
        let _ = TwoStageNetwork::new(&g, &[], TwoStageConfig::default());
    }
}
