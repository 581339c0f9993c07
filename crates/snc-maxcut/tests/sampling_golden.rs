//! Golden digests of `solve` outcomes: the sampling stage end to end.
//!
//! Every served answer is the outcome of `solve`: the circuit's sample
//! stream, the scoring of each sample, the per-replica bests, the merge
//! at each checkpoint and the earliest argmax. These digests pin
//! `best_value`, `best_cut` and the merged `trace` (checkpoints and
//! bests) bit for bit, for all four circuit families on G(150, 0.05) and
//! road-chesapeake, at replica widths R ∈ {1, 3, 8}, at budgets 100 and
//! 257 (neither a multiple of 64, so blocked sampling ends on a partial
//! block), under both the server's LIF parameters (Δt 0.5, 10 steps per
//! sample) and `LifParams::default()` (Δt 0.1, 50 steps per sample).
//! Hopfield ignores the LIF parameters and is pinned once per shape.
//! A weighted G(150, 0.05) row per family and width pins the `f64` path.
//!
//! A change that is *meant* to alter solve outcomes must regenerate the
//! affected rows in the same commit and say why; on a mismatch the
//! failure message prints every moved row in table syntax.

use snc_graph::datasets::EmpiricalDataset;
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::weighted::{randomize_weights, WeightDistribution};
use snc_graph::Graph;
use snc_maxcut::{solve, CircuitFamily, MaxCutGraph, SolveOutcome, SolveSpec};
use snc_neuro::LifParams;

/// FNV-1a over little-endian 64-bit words.
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
}

/// A cut value's bit pattern: the count itself, or the `f64` bits.
trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for u64 {
    fn bits(self) -> u64 {
        self
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn digest<V: Bits>(out: &SolveOutcome<V>) -> u64 {
    let mut h = Fnv::new();
    h.feed(out.best_value.bits());
    h.feed(out.best_cut.len() as u64);
    for &s in out.best_cut.sides() {
        h.feed(s as u64);
    }
    h.feed(out.trace.checkpoints.len() as u64);
    for (&c, &b) in out.trace.checkpoints.iter().zip(&out.trace.best) {
        h.feed(c);
        h.feed(b.bits());
    }
    h.feed(out.samples);
    h.feed(out.replicas as u64);
    h.0
}

const SEED: u64 = 0x5A3D;
const WIDTHS: [usize; 3] = [1, 3, 8];
const BUDGETS: [u64; 2] = [100, 257];

/// The server's membrane parameters (the experiment harness's standard
/// scale): Δt 0.5, so a decorrelation interval is 10 steps.
fn server_lif() -> LifParams {
    LifParams {
        dt: 0.5,
        ..LifParams::default()
    }
}

fn gnp150() -> Graph {
    gnp(150, 0.05, 0x150).unwrap()
}

/// Solves every width × budget × LIF-parameter shape of `family` on
/// `graph` and names each row `family/label/r{R}/b{budget}/{lif}`.
fn rows<G>(family: CircuitFamily, label: &str, graph: &G) -> Vec<(String, u64)>
where
    G: MaxCutGraph,
    G::Value: Bits,
{
    let lifs: &[(&str, LifParams)] = if family == CircuitFamily::Hopfield {
        &[("any", LifParams::default())]
    } else {
        &[("server", server_lif()), ("default", LifParams::default())]
    };
    let mut out = Vec::new();
    for replicas in WIDTHS {
        for budget in BUDGETS {
            for &(lif_name, lif) in lifs {
                let spec = SolveSpec {
                    replicas,
                    lif,
                    ..SolveSpec::new(family, budget, SEED)
                };
                let outcome = solve(graph, &spec).unwrap();
                let name = format!("{}/{label}/r{replicas}/b{budget}/{lif_name}", family.name());
                out.push((name, digest(&outcome)));
            }
        }
    }
    out
}

/// Compares computed rows against the table, reporting every moved row.
fn check(got: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let row = |(n, g): &(String, u64)| format!("    (\"{n}\", {g:#018x}),");
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if names != want {
        let table: Vec<String> = got.iter().map(row).collect();
        panic!("row set changed; computed rows:\n{}", table.join("\n"));
    }
    let moved: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, g), (_, e))| g != e)
        .map(|(r, _)| row(r))
        .collect();
    assert!(
        moved.is_empty(),
        "solve outcomes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn lif_gw_gnp150() {
    check(
        rows(CircuitFamily::LifGw, "gnp150", &gnp150()),
        &[
            ("lif-gw/gnp150/r1/b100/server", 0xc9003db7454a912a),
            ("lif-gw/gnp150/r1/b100/default", 0xf7ef805348bfe3e4),
            ("lif-gw/gnp150/r1/b257/server", 0x1c658bd8ab561b62),
            ("lif-gw/gnp150/r1/b257/default", 0x09b59c608f76cb7d),
            ("lif-gw/gnp150/r3/b100/server", 0xeb41087da49a549f),
            ("lif-gw/gnp150/r3/b100/default", 0x842366897040662c),
            ("lif-gw/gnp150/r3/b257/server", 0x5cbb2fbf5b602b34),
            ("lif-gw/gnp150/r3/b257/default", 0xc48b0340641af2cb),
            ("lif-gw/gnp150/r8/b100/server", 0x5962657bb404044b),
            ("lif-gw/gnp150/r8/b100/default", 0x846df614e2a00dc8),
            ("lif-gw/gnp150/r8/b257/server", 0x133319519846e0ec),
            ("lif-gw/gnp150/r8/b257/default", 0x406ad4b7a4e3bb6e),
        ],
    );
}

#[test]
fn lif_gw_road_chesapeake() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    check(
        rows(CircuitFamily::LifGw, "road", &g),
        &[
            ("lif-gw/road/r1/b100/server", 0x653ced9f8c93ae07),
            ("lif-gw/road/r1/b100/default", 0x952f94d66ffd9e3a),
            ("lif-gw/road/r1/b257/server", 0x8b029456becbfaaa),
            ("lif-gw/road/r1/b257/default", 0xe53fed57149886eb),
            ("lif-gw/road/r3/b100/server", 0xb9f3878fcc75f7a8),
            ("lif-gw/road/r3/b100/default", 0x410c72c1aaa54f46),
            ("lif-gw/road/r3/b257/server", 0x39f76f112e3d0333),
            ("lif-gw/road/r3/b257/default", 0x39fc1739e3c2b11d),
            ("lif-gw/road/r8/b100/server", 0xb0fdc3ff9f60d0ff),
            ("lif-gw/road/r8/b100/default", 0xebbe87cbb4d46696),
            ("lif-gw/road/r8/b257/server", 0x49469dc5e18452c8),
            ("lif-gw/road/r8/b257/default", 0xa39ec6fcc94223b9),
        ],
    );
}

#[test]
fn lif_trevisan_gnp150() {
    check(
        rows(CircuitFamily::LifTrevisan, "gnp150", &gnp150()),
        &[
            ("lif-trevisan/gnp150/r1/b100/server", 0xd0d9e173996ab00f),
            ("lif-trevisan/gnp150/r1/b100/default", 0x299a313f63dcb654),
            ("lif-trevisan/gnp150/r1/b257/server", 0xdcdf7235ee3143ab),
            ("lif-trevisan/gnp150/r1/b257/default", 0x7e981cfda0e9b015),
            ("lif-trevisan/gnp150/r3/b100/server", 0xc7d39f006d754a8f),
            ("lif-trevisan/gnp150/r3/b100/default", 0x71d4ef9d12c7f6ce),
            ("lif-trevisan/gnp150/r3/b257/server", 0x2e237fac05e863d5),
            ("lif-trevisan/gnp150/r3/b257/default", 0xf3c68fa746950175),
            ("lif-trevisan/gnp150/r8/b100/server", 0x61bf7d16de5cd920),
            ("lif-trevisan/gnp150/r8/b100/default", 0x04a3baa34ffc0aab),
            ("lif-trevisan/gnp150/r8/b257/server", 0x364ebf3a9312bbb7),
            ("lif-trevisan/gnp150/r8/b257/default", 0x5035b51780f23691),
        ],
    );
}

#[test]
fn lif_trevisan_road_chesapeake() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    check(
        rows(CircuitFamily::LifTrevisan, "road", &g),
        &[
            ("lif-trevisan/road/r1/b100/server", 0x8b783049dc51edc7),
            ("lif-trevisan/road/r1/b100/default", 0xe17b7330d9c67557),
            ("lif-trevisan/road/r1/b257/server", 0x375949e44cb32101),
            ("lif-trevisan/road/r1/b257/default", 0x117f88aaec600b8c),
            ("lif-trevisan/road/r3/b100/server", 0xd7db90dc7e7db17e),
            ("lif-trevisan/road/r3/b100/default", 0x48ce5a23c29b1dd1),
            ("lif-trevisan/road/r3/b257/server", 0x4a9822e74fcfac4e),
            ("lif-trevisan/road/r3/b257/default", 0x994d2eee6c7a5ee0),
            ("lif-trevisan/road/r8/b100/server", 0x62d3113346d504cf),
            ("lif-trevisan/road/r8/b100/default", 0x4023228d9a57f5e8),
            ("lif-trevisan/road/r8/b257/server", 0xb1b05e43e0999018),
            ("lif-trevisan/road/r8/b257/default", 0x14b5a0da832cfc0d),
        ],
    );
}

#[test]
fn lif_annealed_gnp150() {
    check(
        rows(CircuitFamily::LifAnnealed, "gnp150", &gnp150()),
        &[
            ("lif-annealed/gnp150/r1/b100/server", 0xe50eff317bf7936a),
            ("lif-annealed/gnp150/r1/b100/default", 0x133a75a7db12d6c1),
            ("lif-annealed/gnp150/r1/b257/server", 0xef915c25e93de4e4),
            ("lif-annealed/gnp150/r1/b257/default", 0x2248ce2eec0c2c78),
            ("lif-annealed/gnp150/r3/b100/server", 0x77440aabb1da8b2b),
            ("lif-annealed/gnp150/r3/b100/default", 0x37a8cc6458f5bf17),
            ("lif-annealed/gnp150/r3/b257/server", 0xd89b82efdc95350d),
            ("lif-annealed/gnp150/r3/b257/default", 0x254468e34dbc593b),
            ("lif-annealed/gnp150/r8/b100/server", 0x0af93d79c005aa1a),
            ("lif-annealed/gnp150/r8/b100/default", 0xf02c731473eec67a),
            ("lif-annealed/gnp150/r8/b257/server", 0x06683a13c96a02b3),
            ("lif-annealed/gnp150/r8/b257/default", 0xeb1dd76549167e2c),
        ],
    );
}

#[test]
fn lif_annealed_road_chesapeake() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    check(
        rows(CircuitFamily::LifAnnealed, "road", &g),
        &[
            ("lif-annealed/road/r1/b100/server", 0x532694e0abe7a607),
            ("lif-annealed/road/r1/b100/default", 0x976c1166c032b568),
            ("lif-annealed/road/r1/b257/server", 0x882cf710a77c02aa),
            ("lif-annealed/road/r1/b257/default", 0x4bf5b101df00130f),
            ("lif-annealed/road/r3/b100/server", 0x410c72c1aaa54f46),
            ("lif-annealed/road/r3/b100/default", 0xffadc4217cf36b56),
            ("lif-annealed/road/r3/b257/server", 0x39fc1739e3c2b11d),
            ("lif-annealed/road/r3/b257/default", 0x415a16e4055b850d),
            ("lif-annealed/road/r8/b100/server", 0xebbe87cbb4d46696),
            ("lif-annealed/road/r8/b100/default", 0x29aedcc6c8f3fa86),
            ("lif-annealed/road/r8/b257/server", 0xa39ec6fcc94223b9),
            ("lif-annealed/road/r8/b257/default", 0x8d964e297b127fc9),
        ],
    );
}

#[test]
fn hopfield_gnp150() {
    check(
        rows(CircuitFamily::Hopfield, "gnp150", &gnp150()),
        &[
            ("hopfield/gnp150/r1/b100/any", 0x92bf856bc82633f7),
            ("hopfield/gnp150/r1/b257/any", 0xb3dc5dcc532d14ee),
            ("hopfield/gnp150/r3/b100/any", 0x4a6b7be81e59a220),
            ("hopfield/gnp150/r3/b257/any", 0x55bead371d8735e5),
            ("hopfield/gnp150/r8/b100/any", 0xfb94f2f167606a6f),
            ("hopfield/gnp150/r8/b257/any", 0xf4c01f6e2e2074c1),
        ],
    );
}

#[test]
fn hopfield_road_chesapeake() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    check(
        rows(CircuitFamily::Hopfield, "road", &g),
        &[
            ("hopfield/road/r1/b100/any", 0xd9734f8b5d7de1ba),
            ("hopfield/road/r1/b257/any", 0x9e9b560bd320c3e7),
            ("hopfield/road/r3/b100/any", 0xbed45d6e5217da9d),
            ("hopfield/road/r3/b257/any", 0x26557f204461c521),
            ("hopfield/road/r8/b100/any", 0xd0d1a16ed524ea4b),
            ("hopfield/road/r8/b257/any", 0x8a2fecd18b6578fc),
        ],
    );
}

#[test]
fn weighted_gnp150_all_families() {
    let g = randomize_weights(
        &gnp150(),
        WeightDistribution::Uniform { lo: 0.5, hi: 2.0 },
        0x57,
    )
    .unwrap();
    let mut got = Vec::new();
    for family in CircuitFamily::all() {
        for replicas in [1, 8] {
            let spec = SolveSpec {
                replicas,
                lif: server_lif(),
                ..SolveSpec::new(family, 257, SEED)
            };
            let outcome = solve(&g, &spec).unwrap();
            got.push((
                format!("{}/weighted/r{replicas}/b257/server", family.name()),
                digest(&outcome),
            ));
        }
    }
    check(
        got,
        &[
            ("lif-gw/weighted/r1/b257/server", 0xabfbce0beeba2148),
            ("lif-gw/weighted/r8/b257/server", 0xa8de10bc47c2c78e),
            ("lif-trevisan/weighted/r1/b257/server", 0x765858d022620fcd),
            ("lif-trevisan/weighted/r8/b257/server", 0x5e3d3efb2010c56c),
            ("lif-annealed/weighted/r1/b257/server", 0x75d52e318222cb1a),
            ("lif-annealed/weighted/r8/b257/server", 0x1ad9cce6bd432e9b),
            ("hopfield/weighted/r1/b257/server", 0x1463e7beeebd36a2),
            ("hopfield/weighted/r8/b257/server", 0x94cb71263fde5070),
        ],
    );
}
