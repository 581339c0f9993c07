//! Ising-machine baseline ablation: simulated annealing and parallel
//! tempering (the hardware-annealer algorithm class of the paper's
//! references [10], [11], [30]) vs. the circuits' sampling pipelines, at
//! matched wall-clock-ish budgets.

use bench::{bench_suite_config, er_graph, sdp_factors, BENCH_SAMPLES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_maxcut::anneal::{parallel_tempering, simulated_annealing, AnnealConfig, TemperingConfig};
use snc_maxcut::{
    log2_checkpoints, sample_best_trace, BatchedLifGwCircuit, GwSampler, LifGwConfig,
};
use std::time::Duration;

fn annealer_vs_circuits(c: &mut Criterion) {
    let cfg = bench_suite_config();
    let graph = er_graph(100, 0.25);
    let factors = sdp_factors(&graph);
    let checkpoints = log2_checkpoints(BENCH_SAMPLES);

    // Quality printout (once, untimed): best cut per method.
    let (_, sa) = simulated_annealing(&graph, &AnnealConfig::default());
    let (_, pt) = parallel_tempering(&graph, &TemperingConfig::default());
    let mut software = GwSampler::new(factors.clone(), 1);
    let gw_best = sample_best_trace(&mut software, &graph, &checkpoints).final_best();
    let lif_gw_cfg = LifGwConfig {
        lif: cfg.lif,
        ..LifGwConfig::default()
    };
    let mut circuit = BatchedLifGwCircuit::new(&factors, &[2], &lif_gw_cfg);
    let circuit_best = circuit.best_traces(&graph, &checkpoints)[0].final_best();
    println!(
        "G(100,0.25) m={}: annealing={sa} tempering={pt} gw_best_of_{BENCH_SAMPLES}={gw_best} lif_gw={circuit_best}",
        graph.m()
    );

    let mut group = c.benchmark_group("annealer_ablation");
    group.bench_with_input(
        BenchmarkId::from_parameter("simulated_annealing"),
        &graph,
        |b, g| b.iter(|| simulated_annealing(g, &AnnealConfig::default()).1),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("parallel_tempering"),
        &graph,
        |b, g| b.iter(|| parallel_tempering(g, &TemperingConfig::default()).1),
    );
    group.bench_with_input(
        BenchmarkId::from_parameter("gw_sampling"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut s = GwSampler::new(factors.clone(), 1);
                sample_best_trace(&mut s, g, &checkpoints).final_best()
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = annealer_vs_circuits
}
criterion_main!(benches);
