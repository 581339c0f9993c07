//! Workspace wiring smoke test.
//!
//! This is the cheapest possible proof that the Cargo workspace is
//! assembled correctly: every member crate is reachable through the `snc`
//! umbrella re-exports, and the paper's headline pipeline — random graph →
//! GW SDP → LIF-GW circuit → valid cut — runs end to end. Deeper behavioral
//! checks live in the sibling integration tests; keep this one fast.

use snc::snc_devices::{DeviceModel, DevicePool, PoolSpec};
use snc::snc_experiments::{ExperimentScale, SuiteConfig};
use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_graph::CutAssignment;
use snc::snc_linalg::DMatrix;
use snc::snc_maxcut::{gw, log2_checkpoints, GwConfig, LifGwCircuit, LifGwConfig};
use snc::snc_neuro::LifParams;

/// Every member crate resolves through the umbrella's re-exports.
#[test]
fn reexports_resolve() {
    // One cheap constructor per crate proves the dependency edge links.
    let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), 4), 7);
    assert_eq!(pool.step().len(), 4);

    let eye = DMatrix::identity(3);
    assert_eq!(eye.row(0)[0], 1.0);

    let graph = gnp(8, 0.5, 3).expect("valid G(n,p)");
    assert_eq!(graph.n(), 8);

    let _ = LifParams::default();

    let cfg = SuiteConfig::for_scale(ExperimentScale::Quick);
    assert!(cfg.sample_budget > 0);
}

/// ER graph → GW SDP → LIF-GW sampling produces a valid, nontrivial cut.
#[test]
fn tiny_end_to_end_lif_gw() {
    let graph = gnp(12, 0.5, 41).expect("valid G(n,p)");
    let sol = gw::solve_gw(&graph, &GwConfig::default()).expect("SDP converges");
    let mut circuit = LifGwCircuit::new(&sol.factors, &[5], &LifGwConfig::default());

    // A single sample is a well-formed assignment over all vertices.
    let cut: CutAssignment = circuit.next_cuts().remove(0);
    assert_eq!(cut.len(), graph.n());
    assert!(cut.cut_value(&graph) <= graph.m() as u64);

    // The best-of-64 trace is monotone and beats the empty cut.
    let trace = circuit.best_traces(&graph, &log2_checkpoints(64)).remove(0);
    assert!(trace.final_best() > 0);
    assert!(trace.final_best() <= graph.m() as u64);
}
