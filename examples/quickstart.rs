//! Quickstart: solve MAXCUT on a small graph with every solver in the
//! workspace and compare against the exact optimum.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use snc::snc_graph::generators::erdos_renyi::gnp;
use snc::snc_maxcut::{
    exact, greedy, gw, log2_checkpoints, sample_best_trace, trevisan, GwConfig, GwSampler,
    LifGwCircuit, LifGwConfig, LifTrevisanCircuit, LifTrevisanConfig, RandomCutSampler,
    TrevisanConfig,
};

fn main() {
    // A random G(18, 0.4): small enough for exact ground truth.
    let graph = gnp(18, 0.4, 2024).expect("valid parameters");
    println!(
        "graph: n = {}, m = {} (Erdős–Rényi G(18, 0.4), seed 2024)",
        graph.n(),
        graph.m()
    );

    // Ground truth.
    let (_, opt) = exact::brute_force(&graph);
    println!("exact optimum (brute force):    {opt}");

    let budget = 512;
    let checkpoints = log2_checkpoints(budget);

    // Software Goemans–Williamson: SDP (rank 4) + Gaussian rounding.
    let gw_solution = gw::solve_gw(&graph, &GwConfig::default()).expect("SDP converges");
    println!(
        "GW SDP upper bound:             {:.2}",
        gw_solution.sdp_bound
    );
    let mut software = GwSampler::new(gw_solution.factors.clone(), 1);
    let software_best = sample_best_trace(&mut software, &graph, &checkpoints).final_best();
    println!("software GW (best of {budget}):    {software_best}");

    // LIF-GW circuit: 4 stochastic devices drive 18 LIF neurons whose
    // spike patterns *are* GW-rounded cuts. One circuit is a one-seed
    // batch.
    let mut lif_gw = LifGwCircuit::new(&gw_solution.factors, &[7], &LifGwConfig::default());
    let lif_gw_best = lif_gw.best_traces(&graph, &checkpoints)[0].final_best();
    println!("LIF-GW circuit (best of {budget}): {lif_gw_best}");

    // Software Trevisan simple spectral.
    let spectral = trevisan::solve_trevisan(&graph, &TrevisanConfig::default())
        .expect("eigensolver converges");
    println!("Trevisan spectral (software):   {}", spectral.value);

    // LIF-Trevisan circuit: no offline solve — 18 devices, Oja's
    // anti-Hebbian rule learns the spectral cut online.
    let mut lif_tr = LifTrevisanCircuit::new(&graph, &[11], &LifTrevisanConfig::default());
    let lif_tr_best = lif_tr.best_traces(&graph, &checkpoints)[0].final_best();
    println!("LIF-TR circuit (best of {budget}): {lif_tr_best}");

    // Baselines.
    let mut random = RandomCutSampler::new(graph.n(), 3);
    let random_best = sample_best_trace(&mut random, &graph, &checkpoints).final_best();
    println!("random cuts (best of {budget}):    {random_best}");
    let (_, local) = greedy::multistart_local_search(&graph, 8, 5);
    println!("1-opt local search (8 starts):  {local}");

    println!(
        "\napproximation ratios: software GW {:.3}, LIF-GW {:.3}, LIF-TR {:.3}, random {:.3}",
        software_best as f64 / opt as f64,
        lif_gw_best as f64 / opt as f64,
        lif_tr_best as f64 / opt as f64,
        random_best as f64 / opt as f64,
    );
}
