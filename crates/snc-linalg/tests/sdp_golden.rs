//! Golden digests of Burer–Monteiro solver outputs.
//!
//! Every SDP-backed answer the server returns — the LIF-GW and
//! LIF-annealed partitions, traces and `sdp_bound` — is downstream of
//! the exact bits `solve_weighted_sdp` produces. These digests pin the
//! current solver's outputs (the Barzilai–Borwein descent with its
//! nonmonotone line search): the factor matrix, the final energy, the
//! gradient norm and the iteration count, bit for bit, over the shapes
//! the solver has to get right: the paper's road network, sparse
//! G(n, 0.05) graphs at the server benchmark's sizes, ranks other than 4,
//! restarts, signed couplings, and a solve that stops at its iteration
//! cap. Any change to the step rule or to the order of a single
//! floating-point operation moves them, and with them the wire bytes.
//!
//! A change that is *meant* to alter solver output must regenerate
//! these digests in the same commit and say why.

use snc_devices::{Rng64, SplitMix64};
use snc_graph::datasets::EmpiricalDataset;
use snc_graph::generators::erdos_renyi::gnp;
use snc_linalg::sdp::{solve_maxcut_sdp, solve_weighted_sdp, Coupling, SdpSolution};
use snc_linalg::SdpConfig;

/// FNV-1a over the little-endian bytes of the solution's bit patterns.
fn digest(sol: &SdpSolution) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (rows, cols) = (sol.factors.rows(), sol.factors.cols());
    feed(rows as u64);
    feed(cols as u64);
    for i in 0..rows {
        for &x in sol.factors.row(i) {
            feed(x.to_bits());
        }
    }
    feed(sol.energy.to_bits());
    feed(sol.grad_norm.to_bits());
    feed(sol.iterations as u64);
    h
}

fn edges_of(graph: &snc_graph::Graph) -> Vec<(u32, u32)> {
    graph.edges().collect()
}

fn cfg(rank: usize, seed: u64) -> SdpConfig {
    SdpConfig {
        rank,
        seed,
        ..SdpConfig::default()
    }
}

/// Solves one case and checks its digest, naming the case on failure.
fn check(name: &str, sol: SdpSolution, expected: u64) {
    let got = digest(&sol);
    assert_eq!(
        got, expected,
        "{name}: SDP output moved (digest {got:#018x}, energy {}, iterations {})",
        sol.energy, sol.iterations
    );
}

#[test]
fn road_chesapeake_rank_4() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    let sol = solve_maxcut_sdp(g.n(), &edges_of(&g), &cfg(4, 0x5d9)).unwrap();
    check("road-chesapeake r=4", sol, 0xf6c7_34c9_3664_cc6a);
}

#[test]
fn sparse_gnp_150_rank_4() {
    let g = gnp(150, 0.05, 0x150).unwrap();
    let sol = solve_maxcut_sdp(g.n(), &edges_of(&g), &cfg(4, SplitMix64::derive(11, 1))).unwrap();
    check("G(150, 0.05) r=4", sol, 0xd8eb_3ddc_746f_1f1b);
}

#[test]
fn sparse_gnp_280_rank_4() {
    let g = gnp(280, 0.05, 0x280).unwrap();
    let sol = solve_maxcut_sdp(g.n(), &edges_of(&g), &cfg(4, SplitMix64::derive(12, 1))).unwrap();
    check("G(280, 0.05) r=4", sol, 0xb95f_4c6f_64ea_6ee6);
}

#[test]
fn ranks_2_and_7() {
    let g = gnp(150, 0.05, 0x150).unwrap();
    let edges = edges_of(&g);
    let r2 = solve_maxcut_sdp(g.n(), &edges, &cfg(2, 21)).unwrap();
    check("G(150, 0.05) r=2", r2, 0x0130_e0cf_e892_f4bb);
    let r7 = solve_maxcut_sdp(g.n(), &edges, &cfg(7, 27)).unwrap();
    check("G(150, 0.05) r=7", r7, 0x6c75_d87b_8703_e232);
}

#[test]
fn two_restarts() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    let sol = solve_maxcut_sdp(
        g.n(),
        &edges_of(&g),
        &SdpConfig {
            restarts: 2,
            ..cfg(4, 33)
        },
    )
    .unwrap();
    check("road-chesapeake r=4 restarts=2", sol, 0xb05b_6d70_8e83_902c);
}

#[test]
fn signed_couplings() {
    // A G(60, 0.1) support with weights drawn from [-1, 2): both
    // aligning and anti-aligning terms, none of unit size.
    let g = gnp(60, 0.1, 0x60).unwrap();
    let mut rng = SplitMix64::new(0x516e);
    let couplings: Vec<Coupling> = g
        .edges()
        .map(|(i, j)| Coupling {
            i,
            j,
            w: 3.0 * rng.next_f64() - 1.0,
        })
        .collect();
    assert!(couplings.iter().any(|c| c.w < 0.0) && couplings.iter().any(|c| c.w > 0.0));
    let sol = solve_weighted_sdp(g.n(), &couplings, &cfg(3, 44)).unwrap();
    check("signed G(60, 0.1) r=3", sol, 0x932b_a537_e2e5_12a4);
}

#[test]
fn stops_at_the_iteration_cap() {
    let g = gnp(200, 0.05, 0x200).unwrap();
    let sol = solve_maxcut_sdp(
        g.n(),
        &edges_of(&g),
        &SdpConfig {
            max_iters: 40,
            ..cfg(4, 55)
        },
    )
    .unwrap();
    assert_eq!(
        sol.iterations, 40,
        "a 40-iteration cap is far below convergence"
    );
    check("G(200, 0.05) r=4 max_iters=40", sol, 0xb503_4230_d8c7_cea5);
}

#[test]
fn ranks_1_8_and_16() {
    // The smallest rank, the ablation's 8, and the largest rank the
    // solver accepts. At rank 1 every tangent space is {0}, so the solve
    // stops after one gradient pass: its digest pins the initialization
    // and the energy sum.
    let g = gnp(150, 0.05, 0x150).unwrap();
    let edges = edges_of(&g);
    let r1 = solve_maxcut_sdp(g.n(), &edges, &cfg(1, 61)).unwrap();
    check("G(150, 0.05) r=1", r1, 0x812c_66e1_e06e_2c44);
    let r8 = solve_maxcut_sdp(g.n(), &edges, &cfg(8, 68)).unwrap();
    check("G(150, 0.05) r=8", r8, 0x2a73_ba60_6a19_d16c);
    let r16 = solve_maxcut_sdp(g.n(), &edges, &cfg(16, 76)).unwrap();
    check("G(150, 0.05) r=16", r16, 0xa63c_476b_a8dc_848a);
}

#[test]
fn signed_couplings_rank_4() {
    // The paper's rank on a signed G(120, 0.05) support, weights drawn
    // from [-1, 2) as above.
    let g = gnp(120, 0.05, 0x120).unwrap();
    let mut rng = SplitMix64::new(0x5194);
    let couplings: Vec<Coupling> = g
        .edges()
        .map(|(i, j)| Coupling {
            i,
            j,
            w: 3.0 * rng.next_f64() - 1.0,
        })
        .collect();
    assert!(couplings.iter().any(|c| c.w < 0.0) && couplings.iter().any(|c| c.w > 0.0));
    let sol = solve_weighted_sdp(g.n(), &couplings, &cfg(4, 84)).unwrap();
    check("signed G(120, 0.05) r=4", sol, 0x5c31_b12b_9eb0_68f5);
}
