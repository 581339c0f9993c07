//! E8 (the §VI timing argument): per-sample cost of each sampling route.
//!
//! The paper argues hardware LIF circuits at ~1 ns time constants would
//! generate "millions of samples in the time required for a software
//! simple spectral computation, or billions … to solve and sample the
//! Goemans-Williamson SDP." This bench measures our software analogue of
//! each piece — SDP solve (offline cost), spectral solve (offline cost),
//! per-sample cost of software rounding, the simulated LIF-GW circuit, the
//! simulated LIF-TR circuit, and random cuts — so the amortization
//! trade-off can be computed for any sample budget.

use bench::{er_graph, sdp_factors};
use criterion::{criterion_group, criterion_main, Criterion};
use snc_maxcut::{
    gw, trevisan, CutSampler, GwConfig, GwSampler, LifGwCircuit, LifGwConfig, LifTrevisanCircuit,
    LifTrevisanConfig, RandomCutSampler, TrevisanConfig,
};
use std::hint::black_box;
use std::time::Duration;

fn offline_costs(c: &mut Criterion) {
    let graph = er_graph(200, 0.25);
    let mut group = c.benchmark_group("offline");
    group.bench_function("sdp_solve_n200", |b| {
        b.iter(|| {
            gw::solve_gw(&graph, &GwConfig::default())
                .expect("SDP converges")
                .sdp_bound
        })
    });
    group.bench_function("spectral_solve_n200", |b| {
        b.iter(|| {
            trevisan::solve_trevisan(&graph, &TrevisanConfig::default())
                .expect("eigensolver converges")
                .value
        })
    });
    group.finish();
}

fn per_sample_costs(c: &mut Criterion) {
    let graph = er_graph(200, 0.25);
    let factors = sdp_factors(&graph);
    let mut group = c.benchmark_group("per_sample");

    let mut software = GwSampler::new(factors.clone(), 1);
    group.bench_function("software_gw_rounding", |b| {
        b.iter(|| black_box(software.next_cut().side(0)))
    });

    // One simulated circuit: a one-seed batch.
    let mut circuit = LifGwCircuit::new(&factors, &[2], &LifGwConfig::default());
    group.bench_function("lif_gw_circuit_sim", |b| {
        b.iter(|| black_box(circuit.next_cuts()[0].side(0)))
    });

    let mut tr = LifTrevisanCircuit::new(&graph, &[3], &LifTrevisanConfig::default());
    group.bench_function("lif_tr_circuit_sim", |b| {
        b.iter(|| black_box(tr.next_cuts()[0].side(0)))
    });

    let mut random = RandomCutSampler::new(graph.n(), 4);
    group.bench_function("random_cut", |b| {
        b.iter(|| black_box(random.next_cut().side(0)))
    });

    // Cut evaluation itself (shared by all samplers in best-trace runs).
    let cut = random.next_cut();
    group.bench_function("cut_value_eval", |b| {
        b.iter(|| black_box(cut.cut_value(&graph)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    targets = offline_costs, per_sample_costs
}
criterion_main!(benches);
