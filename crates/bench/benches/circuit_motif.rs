//! E4 (circuit motif): microbenchmarks of the primitive operations every
//! circuit is built from — device pool stepping, the binary-input synaptic
//! kernel (dense and CSC), and full network steps.

use bench::{er_graph, sdp_factors};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_devices::{ActivityWords, DeviceModel, DevicePool, PoolSpec};
use snc_neuro::{CscWeights, DenseWeights, InputWeights, LifParams, ReplicaBatch, Reset};
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
    // Times the packed kernel the hot path actually runs; the `&[bool]`
    // `accumulate_active` form is now an allocating compatibility wrapper
    // and would measure packing overhead instead (see batched_replicas.rs
    // for that measurement).
    let mut group = c.benchmark_group("accumulate_words");
    // Dense LIF-GW shape: n × 4.
    let graph = er_graph(500, 0.25);
    let factors = sdp_factors(&er_graph(500, 0.1));
    let dense = DenseWeights::from_matrix_scaled(&factors, 1.0);
    let active4 = ActivityWords::from_bools(&[true, false, true, true]);
    let mut out = vec![0.0; 500];
    group.bench_function("dense_500x4", |b| {
        b.iter(|| dense.accumulate_words(black_box(&active4), &mut out))
    });
    // Sparse LIF-TR shape: n × n Trevisan matrix.
    let csc = CscWeights::trevisan(&graph, 1.0);
    let active_bools: Vec<bool> = (0..500).map(|i| i % 2 == 0).collect();
    let active_n = ActivityWords::from_bools(&active_bools);
    group.bench_function(format!("csc_500x500_nnz{}", csc.nnz()), |b| {
        b.iter(|| csc.accumulate_words(black_box(&active_n), &mut out))
    });
    group.finish();
}

fn network_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_step");
    for &n in &[50usize, 200, 500] {
        let factors = sdp_factors(&er_graph(n, 0.25));
        let weights = DenseWeights::from_matrix_scaled(&factors, 1.0);
        // One circuit: a one-seed batch.
        let spec = PoolSpec::uniform(DeviceModel::fair(), 4);
        let mut net = ReplicaBatch::new(spec, &[5], weights, LifParams::default(), Reset::None);
        group.bench_with_input(BenchmarkId::new("lif_gw", n), &n, |b, _| {
            b.iter(|| {
                net.step();
                black_box(net.potential(0, 0))
            })
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
