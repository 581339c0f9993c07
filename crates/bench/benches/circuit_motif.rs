//! E4 (circuit motif): microbenchmarks of the primitive operations every
//! circuit is built from — device pool stepping, the dense binary-input
//! synaptic kernel, full network steps, and Hopfield's `tanh` activation.

use bench::{er_graph, sdp_factors};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snc_devices::{ActivityWords, DeviceModel, DevicePool, PoolSpec, Rng64, SplitMix64};
use snc_linalg::detmath;
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

/// Hopfield's activation over 4,096 arguments `gain · u`: the libm's
/// `tanh` one call at a time against `detmath::tanh_lanes` eight at a
/// time. The arguments span the ±8 that served potentials reach at the
/// default gain of 2.
fn tanh_activation(c: &mut Criterion) {
    let mut rng = SplitMix64::new(0x7a4);
    let args: Vec<f64> = (0..4096)
        .map(|_| 2.0 * (8.0 * rng.next_f64() - 4.0))
        .collect();
    // Gate: the lane form is the scalar form, bit for bit.
    let mut lanes = vec![0.0; args.len()];
    detmath_lanes(&args, &mut lanes);
    for (&a, t) in args.iter().zip(&lanes) {
        assert_eq!(t.to_bits(), detmath::tanh(a).to_bits(), "lane form at {a}");
    }

    let mut out = vec![0.0; args.len()];
    let mut group = c.benchmark_group("tanh_4096");
    group.bench_function("libm", |b| {
        b.iter(|| {
            for (x, &a) in out.iter_mut().zip(black_box(&args)) {
                *x = a.tanh();
            }
            black_box(&out);
        })
    });
    group.bench_function("detmath_lanes", |b| {
        b.iter(|| {
            detmath_lanes(black_box(&args), &mut out);
            black_box(&out);
        })
    });
    group.finish();
}

/// `out = tanh(args)` eight at a time, the way Hopfield's kernel runs it.
fn detmath_lanes(args: &[f64], out: &mut [f64]) {
    let (out8, _) = out.as_chunks_mut::<8>();
    for (x, a) in out8.iter_mut().zip(args.as_chunks::<8>().0) {
        *x = detmath::tanh_lanes(*a);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = device_pool_step, synaptic_kernel, network_step, tanh_activation
}
criterion_main!(benches);
