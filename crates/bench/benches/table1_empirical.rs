//! E3 (Table I): end-to-end per-row pipeline cost (dataset construction +
//! SDP + all four samplers), and a printed measured-vs-paper row so the
//! bench run doubles as a Table-I spot check.

use bench::bench_suite_config;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_experiments::table1::run_table1;
use snc_graph::EmpiricalDataset;
use std::time::Duration;

fn table1_rows(c: &mut Criterion) {
    let cfg = bench_suite_config();
    let mut group = c.benchmark_group("table1_row");
    for dataset in [
        EmpiricalDataset::SocDolphins,
        EmpiricalDataset::RoadChesapeake,
    ] {
        // Print the measured row next to the paper's reference once.
        let result = run_table1(&[dataset], &cfg, false);
        let row = &result.rows[0];
        let paper = dataset.paper_row();
        println!(
            "{}: measured (gw={}, tr={}, solver={}, random={}) paper (gw={}, tr={}, solver={}, random={})",
            dataset.name(),
            row.lif_gw, row.lif_tr, row.solver, row.random,
            paper.lif_gw, paper.lif_tr, paper.solver, paper.random
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(dataset.name()),
            &dataset,
            |b, ds| b.iter(|| run_table1(&[*ds], &cfg, false).rows[0].solver),
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
    targets = table1_rows
}
criterion_main!(benches);
