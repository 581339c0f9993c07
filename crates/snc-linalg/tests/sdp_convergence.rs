//! Convergence guard for the Burer–Monteiro solver at its defaults.
//!
//! The four shapes below are ones on which the previous step rule (a
//! monotone Armijo step grown 1.3× per iteration) ran out of its 2,000
//! iterations, so the reported `sdp_bound` was the value of an unconverged
//! iterate. At the default `SdpConfig` (rank 4, seed 0x5d9) each solve must
//! now stop at the gradient tolerance, and its energy must be no worse than
//! that capped solve's beyond a relative 1e-3. The slack is there because
//! rank-4 Burer–Monteiro has spurious local minima, and two step rules may
//! settle in different ones from the same start.

use snc_graph::datasets::EmpiricalDataset;
use snc_graph::generators::erdos_renyi::gnp;
use snc_graph::Graph;
use snc_linalg::sdp::solve_maxcut_sdp;
use snc_linalg::SdpConfig;

/// Relative energy slack over the previous step rule's capped solve.
const SLACK: f64 = 1e-3;

/// Solves `graph` at the defaults and checks convergence and energy
/// against `capped_energy`, the previous step rule's value at its cap.
fn check(name: &str, graph: &Graph, capped_energy: f64) {
    let cfg = SdpConfig::default();
    let edges: Vec<(u32, u32)> = graph.edges().collect();
    let sol = solve_maxcut_sdp(graph.n(), &edges, &cfg).unwrap();
    assert!(
        !sol.capped,
        "{name}: stopped at the {}-iteration cap (gradient norm {:e})",
        cfg.max_iters, sol.grad_norm
    );
    let tol = cfg.grad_tol * (1.0 + sol.energy.abs());
    assert!(
        sol.grad_norm <= tol,
        "{name}: gradient norm {:e} above tolerance {tol:e} after {} iterations",
        sol.grad_norm,
        sol.iterations
    );
    let ceiling = capped_energy + SLACK * capped_energy.abs();
    assert!(
        sol.energy <= ceiling,
        "{name}: energy {} above {ceiling} (capped solve {capped_energy})",
        sol.energy
    );
}

#[test]
fn road_chesapeake() {
    let g = EmpiricalDataset::RoadChesapeake.load().unwrap();
    check("road-chesapeake", &g, -70.702_925_324_189_44);
}

#[test]
fn gnp_400_dense() {
    check(
        "G(400, 0.1) seed 1",
        &gnp(400, 0.1, 1).unwrap(),
        -2_169.464_376_368_885_5,
    );
}

#[test]
fn gnp_500_dense() {
    check(
        "G(500, 0.1) seed 1",
        &gnp(500, 0.1, 1).unwrap(),
        -3_004.636_059_324_885,
    );
}

#[test]
fn gnp_1000_sparse() {
    check(
        "G(1000, 0.02) seed 1",
        &gnp(1000, 0.02, 1).unwrap(),
        -3_958.510_452_752_720_5,
    );
}
