//! E2 (Figure 4): timed slice on empirical graphs — one small stand-in,
//! one exact combinatorial reconstruction, one mesh stand-in — plus the
//! Fig.-4 worker at different `ReplicaBatch` widths (the `--replicas`
//! harness knob).

use bench::{bench_suite_config, fig4_smallest};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_experiments::run_suite;
use snc_graph::EmpiricalDataset;
use std::time::Duration;

fn fig4_suite(c: &mut Criterion) {
    let cfg = bench_suite_config();
    let mut group = c.benchmark_group("fig4_suite");
    for dataset in [
        EmpiricalDataset::SocDolphins,
        EmpiricalDataset::Hamming62,
        EmpiricalDataset::Dwt209,
    ] {
        let graph = dataset.load().expect("dataset loads");
        let traces = run_suite(&graph, &cfg, 11).expect("suite runs");
        let reference = traces.solver.final_best() as f64;
        println!(
            "{}: lif_gw={:.3} lif_tr={:.3} random={:.3} (rel. to solver best {})",
            dataset.name(),
            traces.lif_gw.final_best() as f64 / reference,
            traces.lif_tr.final_best() as f64 / reference,
            traces.random.final_best() as f64 / reference,
            traces.solver.final_best()
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(dataset.name()),
            &graph,
            |b, g| {
                b.iter(|| {
                    run_suite(g, &cfg, 11)
                        .expect("suite runs")
                        .solver
                        .final_best()
                })
            },
        );
    }
    group.finish();
}

/// One Fig.-4 worker job (all four solvers on road-chesapeake) at a fixed
/// total sample budget, as a function of the `ReplicaBatch` width the
/// harness schedules (`SuiteConfig::replicas`). Width 1 is the paper-exact
/// single-circuit trace on the batched steppers; width 8 splits the budget
/// over 8 lock-stepped replicas (R hardware circuits) and merges traces —
/// same total samples, one shared weight traversal per step.
fn fig4_worker_replicas(c: &mut Criterion) {
    let graph = fig4_smallest();
    let mut group = c.benchmark_group("fig4_worker_road_chesapeake");
    // Two budgets: at 256 the fixed per-graph costs (SDP solve, software
    // GW, random baseline) dominate the worker, so batching moves the
    // total only a little; at 2048 circuit sampling is the bulk of the
    // job, which is the paper-scale (2^20-sample) regime in miniature.
    for budget in [256u64, 2048] {
        for replicas in [1usize, 8] {
            let mut cfg = bench_suite_config();
            cfg.sample_budget = budget;
            cfg.replicas = replicas;
            group.bench_function(format!("samples{budget}_replicas{replicas}"), |b| {
                b.iter(|| {
                    run_suite(&graph, &cfg, 11)
                        .expect("suite runs")
                        .solver
                        .final_best()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = fig4_suite, fig4_worker_replicas
}
criterion_main!(benches);
