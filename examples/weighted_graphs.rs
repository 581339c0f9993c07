//! Weighted MAXCUT on the two weighted Table-I networks.
//!
//! `inf-USAir97` and `eco-stmarks` are weighted graphs in the Network
//! Repository — visible in the paper's own Table I, where `eco-stmarks`
//! has a "cut of 1765" on a 54-vertex web. This example runs the solver
//! stack on calibrated weighted stand-ins — the same `solve_gw` and
//! `sample_best_trace` as on unweighted graphs, plus the weighted
//! Trevisan operator — bringing the measured magnitudes into the paper's
//! range.
//!
//! ```text
//! cargo run --release --example weighted_graphs
//! ```

use snc::snc_graph::EmpiricalDataset;
use snc::snc_maxcut::weighted::solve_trevisan_weighted;
use snc::snc_maxcut::{
    log2_checkpoints, sample_best_trace, solve_gw, BatchedLifGwCircuit, BatchedLifTrevisanCircuit,
    GwConfig, GwSampler, LifGwConfig, LifTrevisanConfig, MaxCutGraph, RandomCutSampler,
};

fn main() {
    let budget = 2048;
    let checkpoints = log2_checkpoints(budget);
    println!("weighted Table-I rows (synthetic calibrated weights, {budget} samples):\n");
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "graph", "m", "total_w", "LIF-GW", "LIF-TR", "solver", "random", "paper solver"
    );
    for ds in [EmpiricalDataset::InfUsair97, EmpiricalDataset::EcoStmarks] {
        let g = ds.load_weighted().expect("weighted stand-in loads");

        // Weighted GW SDP; the sampler and the LIF-GW circuit consume the
        // factor matrix exactly as in the unweighted case.
        let sol = solve_gw(&g, &GwConfig::default()).expect("SDP converges");
        let mut software = GwSampler::new(sol.factors.clone(), 1);
        let solver_best = sample_best_trace(&mut software, &g, &checkpoints).final_best();
        // One circuit is a one-seed batch; its stream is a sampler.
        let mut lif_gw = BatchedLifGwCircuit::new(&sol.factors, &[2], &LifGwConfig::default());
        let mut stream = || lif_gw.next_cuts().remove(0);
        let lif_gw_best = sample_best_trace(&mut stream, &g, &checkpoints).final_best();

        // Weighted LIF-Trevisan: entirely online, weighted Trevisan matrix.
        let tr_cfg = LifTrevisanConfig::default();
        let weights = g
            .trevisan_weights(tr_cfg.network.weight_scale)
            .expect("non-negative weights");
        let mut lif_tr = BatchedLifTrevisanCircuit::from_weights(weights, &[3], &tr_cfg);
        let mut stream = || lif_tr.next_cuts().remove(0);
        let lif_tr_best = sample_best_trace(&mut stream, &g, &checkpoints).final_best();

        let mut random = RandomCutSampler::new(g.n(), 4);
        let random_best = sample_best_trace(&mut random, &g, &checkpoints).final_best();

        println!(
            "{:<14} {:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12}",
            ds.name(),
            g.m(),
            g.total_weight(),
            lif_gw_best,
            lif_tr_best,
            solver_best,
            random_best,
            ds.paper_row().solver
        );
    }

    // The weighted spectral solver, shown on eco-stmarks.
    let eco = EmpiricalDataset::EcoStmarks.load_weighted().unwrap();
    let spectral = solve_trevisan_weighted(&eco, &snc::snc_linalg::eigen::EigenConfig::default())
        .expect("eigensolver converges");
    println!(
        "\neco-stmarks weighted Trevisan (software): cut {:.1} at eigenvalue {:.4}",
        spectral.value, spectral.eigenvalue
    );
    println!("\n(stand-in wiring differs from the originals, so values match the paper's");
    println!(" *magnitude class*, not exact numbers — see EXPERIMENTS.md)");
}
