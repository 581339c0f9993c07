//! Golden digests of the circuit stepping kernels.
//!
//! The sampling stage of every served solve runs three kernels: the
//! Hopfield–Tank relaxation, the LIF-Trevisan two-stage network (its
//! sparse synapse kernel and Oja plasticity), and the fair-coin device
//! pool that drives it. A rewrite of any of them that reorders a single
//! floating-point operation or consumes one RNG draw differently moves
//! these bits, and with them the wire bytes. The digests below pin:
//!
//! * `HopfieldNetwork` potentials, activations and energy after 1, 8 and
//!   64 steps, for n ∈ {37, 150} with unit, signed and zero couplings;
//! * the same digests far past the point where a trajectory stops
//!   moving: sparse unit and signed couplings that reach a bitwise fixed
//!   point, and a dense graph locked in a period-2 oscillation;
//! * `TwoStageNetwork` readout weights on G(150, 0.05) (more than
//!   one 64-device word, the last one partial) at R ∈ {1, 2, 3, 8};
//! * the entries of the LIF-Trevisan synaptic matrix `CscWeights`
//!   (densified, and applied to a fixed vector) on the same graph and
//!   on a randomly weighted copy of it, and the weighted Trevisan
//!   operator's product on that copy;
//! * `DevicePool` packed words for fair pools across word boundaries.
//!
//! The Hopfield activation is `snc_linalg::detmath::tanh`, so its
//! digests do not depend on the CPU's FMA unit or on the libm's `tanh`;
//! the energy they also pin still calls the libm's `atanh` and `ln`.
//!
//! A change that is *meant* to alter kernel output must regenerate these
//! digests in the same commit and say why.

use snc_devices::{DeviceModel, DevicePool, PoolSpec, Rng64, SplitMix64};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::weighted::{randomize_weights, WeightDistribution};
use snc_graph::{Graph, TrevisanOperator, WeightedGraph};
use snc_linalg::LinOp;
use snc_neuro::{
    CscWeights, HopfieldNetwork, HopfieldParams, InputWeights, LearningRate, LifParams,
    TwoStageConfig, TwoStageNetwork,
};

/// FNV-1a over little-endian 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn feed_f64s(&mut self, xs: &[f64]) {
        self.feed(xs.len() as u64);
        for &x in xs {
            self.feed(x.to_bits());
        }
    }
}

/// Explicit parameters (today's defaults), so a later change to the
/// default step size does not touch this fixture.
const PARAMS: HopfieldParams = HopfieldParams {
    dt: 0.1,
    gain: 2.0,
    leak: 1.0,
    init_scale: 0.1,
};

#[derive(Clone, Copy, Debug)]
enum Couplings {
    /// Unit weight on every edge.
    Unit,
    /// Weights drawn from [−1, 2).
    Signed,
    /// Signed weights with every third coupling replaced by +0.0 or −0.0.
    Zero,
}

fn couplings(graph: &Graph, kind: Couplings) -> Vec<(u32, u32, f64)> {
    let mut rng = SplitMix64::new(0x4f9 + graph.n() as u64);
    graph
        .edges()
        .enumerate()
        .map(|(k, (i, j))| {
            let signed = 3.0 * rng.next_f64() - 1.0;
            let w = match kind {
                Couplings::Unit => 1.0,
                Couplings::Signed => signed,
                Couplings::Zero if k % 6 == 0 => 0.0,
                Couplings::Zero if k % 6 == 3 => -0.0,
                Couplings::Zero => signed,
            };
            (i, j, w)
        })
        .collect()
}

/// Digests of (u, x, energy) after 1, 8 and 64 steps.
fn hopfield_digests(n: usize, p: f64, kind: Couplings) -> [u64; 3] {
    let graph = gnp(n, p, 0x40f + n as u64).unwrap();
    let mut net = HopfieldNetwork::new(n, &couplings(&graph, kind), PARAMS, &[0x5eed + n as u64]);
    let mut out = [0u64; 3];
    for (slot, target) in [1u64, 8, 64].into_iter().enumerate() {
        net.step_many(target - net.steps());
        let mut h = Fnv::new();
        h.feed_f64s(&net.potentials(0).collect::<Vec<_>>());
        h.feed_f64s(&net.activations(0).collect::<Vec<_>>());
        h.feed(net.energy(0).to_bits());
        out[slot] = h.0;
    }
    out
}

fn check_hopfield(kind: Couplings, expected: [[u64; 3]; 2]) {
    for ((n, p), want) in [(37usize, 0.2), (150, 0.05)].into_iter().zip(expected) {
        let got = hopfield_digests(n, p, kind);
        for (slot, steps) in [1, 8, 64].into_iter().enumerate() {
            assert_eq!(
                got[slot], want[slot],
                "Hopfield {kind:?} n={n} after {steps} steps: digest {:#018x}",
                got[slot]
            );
        }
    }
}

#[test]
fn hopfield_unit_couplings() {
    check_hopfield(
        Couplings::Unit,
        [
            [
                0x38b6_0607_27fb_75cf,
                0xe717_e548_7e60_d1df,
                0x9a00_3ede_222b_95ee,
            ],
            [
                0xcf20_581b_da65_e339,
                0x832b_8576_8e85_9c89,
                0xd34e_9962_7291_b5ef,
            ],
        ],
    );
}

#[test]
fn hopfield_signed_couplings() {
    check_hopfield(
        Couplings::Signed,
        [
            [
                0x74a5_a40b_47b3_224e,
                0x10f1_4a6a_14f2_8ec0,
                0x70e9_aeec_9658_1267,
            ],
            [
                0xd473_9cb8_bfe1_ec9f,
                0xdc33_d689_566c_4b8a,
                0x7bfc_3a04_2623_7269,
            ],
        ],
    );
}

#[test]
fn hopfield_zero_couplings() {
    check_hopfield(
        Couplings::Zero,
        [
            [
                0xf929_39e9_47df_53f2,
                0xe8a8_46de_8669_5183,
                0x5c72_d2ec_2b93_156b,
            ],
            [
                0xfdd5_1610_a801_82ea,
                0x6432_8c06_9825_ba0d,
                0xa935_a6af_8e51_97d0,
            ],
        ],
    );
}

/// Checkpoints of the long-run Hopfield pin. The odd one tells the two
/// phases of a period-2 oscillation apart.
const LONG_RUN: [u64; 4] = [512, 2048, 4095, 4096];

/// Digests of (u, x, energy) at each of [`LONG_RUN`], and the first step
/// that left every potential's bits where they were (`None` if none did).
/// A second copy of the network reaches each checkpoint by `step_many`
/// and must hold the same state.
fn long_run_digests(n: usize, p: f64, kind: Couplings) -> ([u64; 4], Option<u64>) {
    let graph = gnp(n, p, 0x40f + n as u64).unwrap();
    let mut net = HopfieldNetwork::new(n, &couplings(&graph, kind), PARAMS, &[0x5eed + n as u64]);
    let mut jump = net.clone();
    let mut prev: Vec<f64> = net.potentials(0).collect();
    let mut fixed_at = None;
    let mut out = [0u64; 4];
    for (slot, target) in LONG_RUN.into_iter().enumerate() {
        for _ in net.steps()..target {
            net.step();
            let moved = prev
                .iter()
                .zip(net.potentials(0))
                .any(|(a, b)| a.to_bits() != b.to_bits());
            if !moved && fixed_at.is_none() {
                fixed_at = Some(net.steps());
            }
            prev = net.potentials(0).collect();
        }
        jump.step_many(target - jump.steps());
        assert_eq!(jump.steps(), target);
        assert!(
            jump.potentials(0).eq(net.potentials(0)),
            "step_many to {target}"
        );
        assert!(
            jump.activations(0).eq(net.activations(0)),
            "step_many to {target}"
        );
        let mut h = Fnv::new();
        h.feed_f64s(&net.potentials(0).collect::<Vec<_>>());
        h.feed_f64s(&net.activations(0).collect::<Vec<_>>());
        h.feed(net.energy(0).to_bits());
        out[slot] = h.0;
    }
    (out, fixed_at)
}

/// A long-run row: G(n, p), its couplings, the digests at each of
/// [`LONG_RUN`] and the step that first moved no potential.
type LongRun = (usize, f64, Couplings, [u64; 4], Option<u64>);

/// Long trajectories, most of whose steps come after a fixed point: a
/// kernel that stops integrating a settled network must leave every
/// digest here as it is, and must keep integrating one that never
/// settles.
#[test]
fn hopfield_past_the_fixed_point() {
    let rows: [LongRun; 4] = [
        (
            150,
            0.05,
            Couplings::Unit,
            [
                0x6c2f_fc70_a511_b619,
                0xfee6_e9b8_80e2_f199,
                0xfee6_e9b8_80e2_f199,
                0xfee6_e9b8_80e2_f199,
            ],
            Some(1087),
        ),
        (
            300,
            0.05,
            Couplings::Unit,
            [
                0xf9f2_b5e6_0035_086e,
                0xb141_ced0_abfe_259a,
                0xb141_ced0_abfe_259a,
                0xb141_ced0_abfe_259a,
            ],
            Some(1221),
        ),
        (
            150,
            0.05,
            Couplings::Signed,
            [
                0x31a4_fc41_f3a7_abf8,
                0x0a7b_a9d5_96dd_bbcc,
                0x0a7b_a9d5_96dd_bbcc,
                0x0a7b_a9d5_96dd_bbcc,
            ],
            Some(752),
        ),
        (
            200,
            0.2,
            Couplings::Unit,
            [
                0xf9ec_bfea_1923_d863,
                0xf9ec_bfea_1923_d863,
                0x9486_9bf9_d850_2d1a,
                0xf9ec_bfea_1923_d863,
            ],
            None,
        ),
    ];
    let (mut settled, mut unsettled) = (0, 0);
    for (n, p, kind, want, want_fixed_at) in rows {
        let (got, fixed_at) = long_run_digests(n, p, kind);
        for (slot, steps) in LONG_RUN.into_iter().enumerate() {
            assert_eq!(
                got[slot], want[slot],
                "Hopfield {kind:?} G({n}, {p}) after {steps} steps: digest {:#018x}",
                got[slot]
            );
        }
        assert_eq!(
            fixed_at, want_fixed_at,
            "Hopfield {kind:?} G({n}, {p}) fixed point"
        );
        match fixed_at {
            Some(step) if step < LONG_RUN[LONG_RUN.len() - 1] => settled += 1,
            _ => unsettled += 1,
        }
    }
    assert!(settled >= 1, "no pinned trajectory reaches its fixed point");
    assert!(unsettled >= 1, "every pinned trajectory settles");
}

/// Plasticity updates run before the readout weights are digested.
const UPDATES: u64 = 25;

/// Explicit two-stage configuration (today's defaults), so a later
/// change to the LIF-Trevisan defaults regenerates only the wire rows,
/// not this fixture.
const TWO_STAGE: TwoStageConfig = TwoStageConfig {
    lif: LifParams {
        r: 1.0,
        c: 1.0,
        dt: 0.1,
    },
    learning_rate: LearningRate::Decay {
        eta0: 0.05,
        t0: 20_000.0,
    },
    plasticity_interval: 10,
    weight_scale: 1.0,
};

fn replica_seeds(replicas: usize) -> Vec<u64> {
    (0..replicas as u64)
        .map(|r| SplitMix64::derive(0x7e5, r))
        .collect()
}

#[test]
fn two_stage_readout_weights() {
    let graph = gnp(150, 0.05, 0x150).unwrap();
    assert!(graph.n() > 64 && !graph.n().is_multiple_of(64));
    let cfg = TWO_STAGE;
    for (replicas, want) in [
        (1usize, 0x54cf_6e74_b552_a332u64),
        (2, 0xc5cc_f8ba_b833_d96e),
        (3, 0x8381_dec5_7472_2d5f),
        (8, 0x37f6_a163_283d_f61b),
    ] {
        let seeds = replica_seeds(replicas);
        let mut batch = TwoStageNetwork::new(&graph, &seeds, cfg);
        batch.run_updates(UPDATES);
        let mut batched = Fnv::new();
        for r in 0..replicas {
            batched.feed_f64s(batch.readout_weights(r));
        }
        assert_eq!(
            batched.0, want,
            "TwoStageNetwork R={replicas}: digest {:#018x}",
            batched.0
        );
    }
}

#[test]
fn fair_pool_words() {
    for (n, want) in [
        (1usize, 0x4b10_ac24_fa27_9284u64),
        (63, 0xacb1_bf7d_1c6a_cbaf),
        (64, 0xb804_0ff5_1596_9cea),
        (65, 0x4fae_497b_2a3f_24e7),
        (200, 0x9311_de1b_562c_9c51),
    ] {
        let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), n), 0xfa1 + n as u64);
        let mut h = Fnv::new();
        for _ in 0..300 {
            let words = pool.step().words();
            h.feed(words.len() as u64);
            for &w in words {
                h.feed(w);
            }
        }
        assert_eq!(h.0, want, "fair pool n={n}: digest {:#018x}", h.0);
    }
}

/// G(150, 0.05) with uniform weights on [0.25, 2).
fn weighted_gnp150() -> WeightedGraph {
    let graph = gnp(150, 0.05, 0x150).unwrap();
    let dist = WeightDistribution::Uniform { lo: 0.25, hi: 2.0 };
    randomize_weights(&graph, dist, 0x151).unwrap()
}

/// A fixed vector with entries in [−1, 1), one exact zero.
fn probe(n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(0x9e0 + n as u64);
    let mut x: Vec<f64> = (0..n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
    x[n / 2] = 0.0;
    x
}

/// The dense rows of `w` and its product with [`probe`].
fn csc_digest(w: &CscWeights) -> u64 {
    let mut h = Fnv::new();
    let dense = w.to_dense();
    for i in 0..w.neurons() {
        h.feed_f64s(dense.row(i));
    }
    let mut out = vec![f64::NAN; w.neurons()];
    w.apply(&probe(w.devices()), &mut out);
    h.feed_f64s(&out);
    h.0
}

#[test]
fn trevisan_synapse_entries() {
    let graph = gnp(150, 0.05, 0x150).unwrap();
    let weighted = weighted_gnp150();
    for (scale, want_unit, want_weighted) in [
        (1.0, 0x995b_65e1_b9fc_8cc6u64, 0xbb3f_1e03_ceec_0948u64),
        (0.75, 0x2209_0794_74c0_cbfd, 0xad78_61d2_595b_6460),
    ] {
        let unit = csc_digest(&CscWeights::trevisan(&graph, scale));
        assert_eq!(
            unit, want_unit,
            "CscWeights::trevisan scale {scale}: digest {unit:#018x}"
        );
        let w = csc_digest(&CscWeights::trevisan(&weighted, scale));
        assert_eq!(
            w, want_weighted,
            "weighted CscWeights::trevisan scale {scale}: digest {w:#018x}"
        );
    }
}

#[test]
fn weighted_trevisan_operator_apply() {
    let graph = weighted_gnp150();
    let x = probe(graph.n());
    let mut y = vec![f64::NAN; graph.n()];
    TrevisanOperator::new(&graph).apply(&x, &mut y);
    let mut h = Fnv::new();
    h.feed_f64s(&y);
    assert_eq!(
        h.0, 0xcae9_d7b4_5d43_6ae8,
        "weighted TrevisanOperator: digest {:#018x}",
        h.0
    );
}
