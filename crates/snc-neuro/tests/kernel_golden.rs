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
//! * `BatchedTwoStageNetwork` readout weights on G(150, 0.05) (more than
//!   one 64-device word, the last one partial) at R ∈ {1, 2, 3, 8};
//! * `DevicePool` packed words for fair pools across word boundaries.
//!
//! A change that is *meant* to alter kernel output must regenerate these
//! digests in the same commit and say why.

use snc_devices::{DeviceModel, DevicePool, PoolSpec, Rng64, SplitMix64};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::Graph;
use snc_neuro::{BatchedTwoStageNetwork, HopfieldNetwork, HopfieldParams, TwoStageConfig};

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
    let mut net = HopfieldNetwork::new(n, &couplings(&graph, kind), PARAMS, 0x5eed + n as u64);
    let mut out = [0u64; 3];
    for (slot, target) in [1u64, 8, 64].into_iter().enumerate() {
        net.step_many(target - net.steps());
        let mut h = Fnv::new();
        h.feed_f64s(net.potentials());
        h.feed_f64s(net.activations());
        h.feed(net.energy().to_bits());
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
                0x0bf7_0b47_d2b2_8466,
                0x2b4f_a012_380a_a0d8,
                0x04a9_8f79_9c13_24fc,
            ],
            [
                0x0d01_2137_218c_ea33,
                0x1418_ef7e_edcd_0043,
                0x443d_a3d5_1f7c_1718,
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
                0xeb93_fb17_223e_5c34,
                0x0d5b_c064_42bd_39ae,
                0xff05_cfee_116a_7d4b,
            ],
            [
                0xcb1c_8035_46a7_9f39,
                0x507b_37d5_101c_1f06,
                0x31b8_d6c9_d04b_e5d5,
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
                0x871d_5691_eeb2_b1d1,
                0xc618_1abc_7657_4b6f,
                0x9868_9d7e_2d8b_3a69,
            ],
            [
                0x2254_2c59_1559_fa44,
                0x9d04_dac2_12bc_a77f,
                0x83ea_f01d_16ae_6467,
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
    let mut net = HopfieldNetwork::new(n, &couplings(&graph, kind), PARAMS, 0x5eed + n as u64);
    let mut jump = net.clone();
    let mut prev = net.potentials().to_vec();
    let mut fixed_at = None;
    let mut out = [0u64; 4];
    for (slot, target) in LONG_RUN.into_iter().enumerate() {
        for _ in net.steps()..target {
            net.step();
            let moved = prev
                .iter()
                .zip(net.potentials())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            if !moved && fixed_at.is_none() {
                fixed_at = Some(net.steps());
            }
            prev.copy_from_slice(net.potentials());
        }
        jump.step_many(target - jump.steps());
        assert_eq!(jump.steps(), target);
        assert_eq!(jump.potentials(), net.potentials(), "step_many to {target}");
        assert_eq!(
            jump.activations(),
            net.activations(),
            "step_many to {target}"
        );
        let mut h = Fnv::new();
        h.feed_f64s(net.potentials());
        h.feed_f64s(net.activations());
        h.feed(net.energy().to_bits());
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
                0x17d7_4579_4dd4_b9da,
                0x739d_e166_8200_617d,
                0x739d_e166_8200_617d,
                0x739d_e166_8200_617d,
            ],
            Some(1088),
        ),
        (
            300,
            0.05,
            Couplings::Unit,
            [
                0xb618_37bd_d41e_67ef,
                0x414a_5739_4466_5a6f,
                0x414a_5739_4466_5a6f,
                0x414a_5739_4466_5a6f,
            ],
            Some(1221),
        ),
        (
            150,
            0.05,
            Couplings::Signed,
            [
                0x1a7f_ef87_a967_7a2a,
                0x64dd_15a0_176c_6029,
                0x64dd_15a0_176c_6029,
                0x64dd_15a0_176c_6029,
            ],
            Some(752),
        ),
        (
            200,
            0.2,
            Couplings::Unit,
            [
                0x66f4_d4fe_f1c3_cdd0,
                0x66f4_d4fe_f1c3_cdd0,
                0x3a01_e1b4_e220_bcc6,
                0x66f4_d4fe_f1c3_cdd0,
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

fn replica_seeds(replicas: usize) -> Vec<u64> {
    (0..replicas as u64)
        .map(|r| SplitMix64::derive(0x7e5, r))
        .collect()
}

#[test]
fn two_stage_readout_weights() {
    let graph = gnp(150, 0.05, 0x150).unwrap();
    assert!(graph.n() > 64 && !graph.n().is_multiple_of(64));
    let cfg = TwoStageConfig::default();
    for (replicas, want) in [
        (1usize, 0xd81d_ea8b_877b_7fe2u64),
        (2, 0x407d_0ca3_999a_5a51),
        (3, 0x97dc_8364_edc5_a181),
        (8, 0xc6a7_9fa3_0fc8_e13a),
    ] {
        let seeds = replica_seeds(replicas);
        let mut batch = BatchedTwoStageNetwork::new(&graph, &seeds, cfg);
        batch.run_updates(UPDATES);
        let mut batched = Fnv::new();
        for r in 0..replicas {
            batched.feed_f64s(batch.readout_weights(r));
        }
        assert_eq!(
            batched.0, want,
            "BatchedTwoStageNetwork R={replicas}: digest {:#018x}",
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
