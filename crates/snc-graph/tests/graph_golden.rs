//! Golden digests of the graph substrate: CSR construction, cut
//! arithmetic and the Trevisan operator.
//!
//! Unweighted and weighted graphs share one problem (the paper's
//! `max ½ Σ A_ij (1 − v_i v_j)`, §II.A), and a rewrite of their storage
//! or arithmetic must not move a single bit of what the solvers read.
//! The digests below pin:
//!
//! * the CSR rows and weight bits of graphs built from edge lists with
//!   duplicates in both orientations, self-loops, and `+0.0`, `−0.0` and
//!   negative weights, whose merged sums depend on the order duplicates
//!   are added in;
//! * the bits of `total_weight`, `cut_value` and `flip_delta` on those
//!   graphs and on G(150, 0.05) with and without random weights;
//! * `TrevisanOperator::apply` on a fixed vector.
//!
//! Every input is built from `+`, `−`, `×`, `÷` and `sqrt` alone, so no
//! digest depends on the platform's libm beyond what `gnp` draws.
//!
//! A change that is *meant* to alter these bits must regenerate the
//! digests in the same commit and say why.

use snc_devices::{Rng64, SplitMix64};
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::weighted::{randomize_weights, WeightDistribution};
use snc_graph::{CutAssignment, Graph, TrevisanOperator, WeightedGraph};
use snc_linalg::LinOp;

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

    fn feed_u32s(&mut self, xs: &[u32]) {
        self.feed(xs.len() as u64);
        for &x in xs {
            self.feed(u64::from(x));
        }
    }

    fn feed_f64s(&mut self, xs: &[f64]) {
        self.feed(xs.len() as u64);
        for &x in xs {
            self.feed(x.to_bits());
        }
    }
}

/// Vertices of the messy edge list.
const MESSY_N: usize = 40;

/// 600 edges on 40 vertices drawn with replacement, so pairs repeat;
/// every fifth edge comes again reversed with another weight, and every
/// seventeenth is a self-loop. Weights are fractional (their sums round),
/// with `+0.0`, `−0.0` and negative values mixed in.
fn messy_edges() -> Vec<(u32, u32, f64)> {
    let mut rng = SplitMix64::new(0x6a0e);
    let mut edges = Vec::new();
    for k in 0..600u64 {
        let u = rng.next_index(MESSY_N) as u32;
        let v = if k % 17 == 0 {
            u
        } else {
            rng.next_index(MESSY_N) as u32
        };
        let w = match k % 9 {
            0 => 0.0,
            4 => -0.0,
            7 => -(rng.next_f64() * 2.5),
            _ => rng.next_f64() * 3.0 + 0.1,
        };
        edges.push((u, v, w));
        if k % 5 == 0 {
            edges.push((v, u, rng.next_f64() / 3.0));
        }
    }
    edges
}

fn messy_weighted() -> WeightedGraph {
    WeightedGraph::from_weighted_edges(MESSY_N, &messy_edges()).unwrap()
}

fn messy_unweighted() -> Graph {
    let pairs: Vec<(u32, u32)> = messy_edges().iter().map(|&(u, v, _)| (u, v)).collect();
    Graph::from_edges(MESSY_N, &pairs).unwrap()
}

fn gnp150() -> Graph {
    gnp(150, 0.05, 0x150).unwrap()
}

fn gnp150_weighted() -> WeightedGraph {
    randomize_weights(
        &gnp150(),
        WeightDistribution::Uniform { lo: 0.25, hi: 2.0 },
        0x151,
    )
    .unwrap()
}

/// Sixteen fixed cuts of `n` vertices (the all-`+1` cut first).
fn cuts(n: usize) -> Vec<CutAssignment> {
    let mut rng = SplitMix64::new(0xc07 + n as u64);
    let mut out = vec![CutAssignment::all_ones(n)];
    out.extend((1..16).map(|_| CutAssignment::random(n, &mut rng)));
    out
}

/// A fixed vector with entries in [−1, 1), one exact zero.
fn probe(n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(0x9e0 + n as u64);
    let mut x: Vec<f64> = (0..n).map(|_| 2.0 * rng.next_f64() - 1.0).collect();
    x[n / 2] = 0.0;
    x
}

fn unweighted_rows(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.feed(g.n() as u64);
    h.feed(g.m() as u64);
    for i in 0..g.n() {
        h.feed_u32s(g.neighbors(i));
    }
    h.0
}

fn weighted_rows(g: &WeightedGraph) -> u64 {
    let mut h = Fnv::new();
    h.feed(g.n() as u64);
    h.feed(g.m() as u64);
    for i in 0..g.n() {
        h.feed_u32s(g.neighbors(i));
        h.feed_f64s(g.neighbor_weights(i));
    }
    h.0
}

fn unweighted_cut_arithmetic(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    for cut in cuts(g.n()) {
        h.feed(cut.cut_value(g));
        for i in 0..g.n() {
            h.feed(cut.flip_delta(g, i) as u64);
        }
    }
    h.0
}

fn weighted_cut_arithmetic(g: &WeightedGraph) -> u64 {
    let mut h = Fnv::new();
    h.feed(g.total_weight().to_bits());
    for cut in cuts(g.n()) {
        h.feed(g.cut_value(&cut).to_bits());
        for i in 0..g.n() {
            h.feed(g.flip_delta(&cut, i).to_bits());
        }
    }
    h.0
}

fn check(label: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{label}: digest {got:#018x}");
}

#[test]
fn csr_rows_and_weight_bits() {
    check(
        "messy weighted",
        weighted_rows(&messy_weighted()),
        0xa834_6a80_916b_6aae,
    );
    check(
        "messy unweighted",
        unweighted_rows(&messy_unweighted()),
        0x309c_d826_d4e3_50ac,
    );
    check(
        "G(150, 0.05) weighted",
        weighted_rows(&gnp150_weighted()),
        0x958f_fc4f_52d8_2901,
    );
    check(
        "G(150, 0.05)",
        unweighted_rows(&gnp150()),
        0x935f_6a35_10b9_1ab7,
    );
}

#[test]
fn total_weight_cut_value_and_flip_delta_bits() {
    check(
        "messy weighted",
        weighted_cut_arithmetic(&messy_weighted()),
        0x33e0_f94d_21f7_42cf,
    );
    check(
        "messy unweighted",
        unweighted_cut_arithmetic(&messy_unweighted()),
        0xaa20_c3ff_0987_1832,
    );
    check(
        "G(150, 0.05) weighted",
        weighted_cut_arithmetic(&gnp150_weighted()),
        0xb8ff_c158_afee_6117,
    );
    check(
        "G(150, 0.05)",
        unweighted_cut_arithmetic(&gnp150()),
        0xc6fb_6161_2a52_c209,
    );
}

#[test]
fn trevisan_operator_apply_bits() {
    for (label, g, want) in [
        (
            "messy unweighted",
            messy_unweighted(),
            0x19d5_19de_1715_38a5u64,
        ),
        ("G(150, 0.05)", gnp150(), 0x4aae_3424_c498_b4e0),
    ] {
        let x = probe(g.n());
        let mut y = vec![f64::NAN; g.n()];
        TrevisanOperator::new(&g).apply(&x, &mut y);
        let mut h = Fnv::new();
        h.feed_f64s(&y);
        check(label, h.0, want);
    }
}
