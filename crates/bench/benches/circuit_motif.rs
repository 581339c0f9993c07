//! E4 (circuit motif): microbenchmarks of the primitive operations every
//! circuit is built from — device pool stepping, the dense binary-input
//! synaptic kernel, and full network steps.

use bench::{er_graph, sdp_factors};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_devices::{ActivityWords, DeviceModel, DevicePool, PoolSpec};
use snc_neuro::{DenseWeights, LifParams, ReplicaBatch};
use std::hint::black_box;
use std::time::Duration;

fn device_pool_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("device_pool_step");
    for &r in &[4usize, 64, 500] {
        let mut pool = DevicePool::new(PoolSpec::uniform(DeviceModel::fair(), r), 3);
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, _| {
            b.iter(|| black_box(pool.step().words()[0]))
        });
    }
    group.finish();
}

fn synaptic_kernel(c: &mut Criterion) {
    // Times the packed kernel the hot path actually runs.
    let mut group = c.benchmark_group("accumulate_words");
    // Dense LIF-GW shape: n × 4.
    let factors = sdp_factors(&er_graph(500, 0.1));
    let dense = DenseWeights::from_matrix_scaled(&factors, 1.0);
    let active4 = ActivityWords::from_bools(&[true, false, true, true]);
    let mut out = vec![0.0; 500];
    group.bench_function("dense_500x4", |b| {
        b.iter(|| dense.accumulate_words(black_box(&active4), &mut out))
    });
    // LIF-TR's sparse stage 1 runs one gather per plasticity interval;
    // batched_replicas.rs times it (`interval_update_n500`).
    group.finish();
}

fn network_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_step");
    for &n in &[50usize, 200, 500] {
        let factors = sdp_factors(&er_graph(n, 0.25));
        let weights = DenseWeights::from_matrix_scaled(&factors, 1.0);
        // One circuit: a one-seed batch.
        let spec = PoolSpec::uniform(DeviceModel::fair(), 4);
        let mut net = ReplicaBatch::new(spec, &[5], weights, LifParams::default());
        group.bench_with_input(BenchmarkId::new("lif_gw", n), &n, |b, _| {
            b.iter(|| black_box(&mut net).step())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = device_pool_step, synaptic_kernel, network_step
}
criterion_main!(benches);
