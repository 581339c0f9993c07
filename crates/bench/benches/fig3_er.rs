//! E1 (Figure 3): timed slice of the Erdős–Rényi sweep.
//!
//! Times the full four-solver suite on representative (n, p) panels, and —
//! once, outside timing — prints the final relative values so the bench
//! output doubles as a miniature Figure-3 panel check.

use bench::{bench_suite_config, er_graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_experiments::run_suite;
use std::time::Duration;

fn fig3_suite(c: &mut Criterion) {
    let cfg = bench_suite_config();
    let mut group = c.benchmark_group("fig3_suite");
    for &(n, p) in &[(50usize, 0.25f64), (100, 0.25), (100, 0.5)] {
        let graph = er_graph(n, p);
        // Print the panel values once so shape can be eyeballed.
        let traces = run_suite(&graph, &cfg, 7).expect("suite runs");
        let reference = traces.solver.final_best() as f64;
        println!(
            "G({n},{p}): lif_gw={:.3} lif_tr={:.3} solver=1.000 random={:.3} (rel. to solver, {} samples)",
            traces.lif_gw.final_best() as f64 / reference,
            traces.lif_tr.final_best() as f64 / reference,
            traces.random.final_best() as f64 / reference,
            cfg.sample_budget
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("G({n},{p})")),
            &graph,
            |b, g| {
                b.iter(|| {
                    run_suite(g, &cfg, 7)
                        .expect("suite runs")
                        .solver
                        .final_best()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = fig3_suite
}
criterion_main!(benches);
