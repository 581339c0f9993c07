//! E5 (device ablation): throughput and quality of the LIF-GW circuit
//! under each device imperfection model, quantifying the Discussion's
//! robustness hypothesis.

use bench::{er_graph, sdp_factors, BENCH_SAMPLES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_devices::{CommonCause, DeviceModel};
use snc_maxcut::{log2_checkpoints, BatchedLifGwCircuit, LifGwConfig};
use std::hint::black_box;
use std::time::Duration;

fn device_models(c: &mut Criterion) {
    let graph = er_graph(100, 0.25);
    let factors = sdp_factors(&graph);
    let cases: Vec<(&str, LifGwConfig)> = vec![
        ("fair", LifGwConfig::default()),
        (
            "biased_0.7",
            LifGwConfig {
                device: DeviceModel::biased(0.7).expect("valid"),
                ..LifGwConfig::default()
            },
        ),
        (
            "telegraph",
            LifGwConfig {
                device: DeviceModel::telegraph(0.1, 0.1).expect("valid"),
                ..LifGwConfig::default()
            },
        ),
        (
            "drifting",
            LifGwConfig {
                device: DeviceModel::drifting(0.5, 0.02, 0.2, 0.8).expect("valid"),
                ..LifGwConfig::default()
            },
        ),
        (
            "correlated_0.5",
            LifGwConfig {
                common_cause: Some(CommonCause::new(0.5).expect("valid")),
                ..LifGwConfig::default()
            },
        ),
    ];

    let mut group = c.benchmark_group("lif_gw_device_model");
    for (name, cfg) in &cases {
        // Quality readout (once, untimed), from one circuit: a one-seed
        // batch.
        let mut circuit = BatchedLifGwCircuit::new(&factors, &[9], cfg);
        let best = circuit.best_traces(&graph, &log2_checkpoints(BENCH_SAMPLES))[0].final_best();
        println!("{name}: best_of_{BENCH_SAMPLES}={best} (m={})", graph.m());
        // Per-sample cost.
        let mut circuit = BatchedLifGwCircuit::new(&factors, &[9], cfg);
        group.bench_with_input(BenchmarkId::from_parameter(*name), name, |b, _| {
            b.iter(|| black_box(circuit.next_cuts()[0].side(0)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = device_models
}
criterion_main!(benches);
